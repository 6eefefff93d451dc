#include "util/flags.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace tsce::util {
namespace {

std::string repr_of(std::int64_t v) { return std::to_string(v); }
std::string repr_of(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}
std::string repr_of(bool v) { return v ? "true" : "false"; }

}  // namespace

void Flags::add(std::string_view name, std::int64_t* target, std::string_view help) {
  entries_.push_back({std::string(name), Type::kInt, target, std::string(help),
                      repr_of(*target)});
}
void Flags::add(std::string_view name, double* target, std::string_view help) {
  entries_.push_back({std::string(name), Type::kDouble, target, std::string(help),
                      repr_of(*target)});
}
void Flags::add(std::string_view name, bool* target, std::string_view help) {
  entries_.push_back({std::string(name), Type::kBool, target, std::string(help),
                      repr_of(*target)});
}
void Flags::add(std::string_view name, std::string* target, std::string_view help) {
  entries_.push_back(
      {std::string(name), Type::kString, target, std::string(help), *target});
}

Flags::Entry* Flags::find(std::string_view name) {
  for (auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

bool Flags::assign(Entry& entry, std::string_view value) {
  switch (entry.type) {
    case Type::kInt: {
      auto* t = static_cast<std::int64_t*>(entry.target);
      auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), *t);
      return ec == std::errc{} && ptr == value.data() + value.size();
    }
    case Type::kDouble: {
      // from_chars for double is available in libstdc++ 11+; strtod keeps us
      // portable and the inputs are trusted CLI text.
      char* end = nullptr;
      const std::string copy(value);
      *static_cast<double*>(entry.target) = std::strtod(copy.c_str(), &end);
      return end != nullptr && *end == '\0' && !copy.empty();
    }
    case Type::kBool: {
      auto* t = static_cast<bool*>(entry.target);
      if (value == "true" || value == "1") {
        *t = true;
      } else if (value == "false" || value == "0") {
        *t = false;
      } else {
        return false;
      }
      return true;
    }
    case Type::kString:
      *static_cast<std::string*>(entry.target) = std::string(value);
      return true;
  }
  return false;
}

void Flags::print_help() const {
  std::printf("%s\n\nFlags:\n", doc_.c_str());
  for (const auto& e : entries_) {
    std::printf("  --%-24s %s (default: %s)\n", e.name.c_str(), e.help.c_str(),
                e.default_repr.c_str());
  }
  std::printf("  --%-24s print this help\n", "help");
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg == "help") {
      print_help();
      return false;
    }
    std::string_view name = arg;
    std::string_view value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    Entry* entry = find(name);
    bool negated = false;
    if (entry == nullptr && name.starts_with("no-")) {
      entry = find(name.substr(3));
      negated = entry != nullptr && entry->type == Type::kBool;
      if (!negated) entry = nullptr;
    }
    if (entry == nullptr) {
      std::fprintf(stderr, "error: unknown flag --%.*s (see --help)\n",
                   static_cast<int>(name.size()), name.data());
      return false;
    }
    if (negated) {
      *static_cast<bool*>(entry->target) = false;
      continue;
    }
    if (!has_value) {
      if (entry->type == Type::kBool) {
        *static_cast<bool*>(entry->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: flag --%s expects a value\n", entry->name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!assign(*entry, value)) {
      std::fprintf(stderr, "error: bad value '%.*s' for flag --%s\n",
                   static_cast<int>(value.size()), value.data(), entry->name.c_str());
      return false;
    }
  }
  return true;
}

bool flag_at_least(std::string_view flag, std::int64_t value,
                   std::int64_t min) {
  if (value >= min) return true;
  std::fprintf(stderr, "error: --%.*s must be >= %lld\n",
               static_cast<int>(flag.size()), flag.data(),
               static_cast<long long>(min));
  return false;
}

}  // namespace tsce::util
