# Script mode:
#   cmake -DROOT=<repo> -P check_source_rules.cmake
#   cmake -DFILE=<file> -DAS=<repo-relative path> -P check_source_rules.cmake
#
# The source rules no compiler flag expresses, checked as text.  ROOT mode
# scans every .cpp/.hpp under src/, tools/, bench/, examples/ and tests/; FILE
# mode checks one file as if it lived at AS, which selects the directory-
# scoped rules.  Prints one "<path>:<line>: [<rule>] <message>" line per
# violation and fails when there is any.  `//` comments are blanked before
# the code rules run.
#
#   deterministic-rng           outside tests/: no std::rand, srand,
#                               random_device, std::time or time(0/NULL/
#                               nullptr) seeds; randomness comes from util::Rng
#   no-iostream-hot             src/core, src/analysis, src/model: no <iostream>
#   pragma-once                 every header has #pragma once and no
#                               #ifndef ..._H / _HPP guard
#   invalid-id-sentinel         src/: no bare -1 on a line naming MachineId,
#                               StringId or AppIndex; use model::kInvalidId /
#                               model::kUnassigned
#   nondeterministic-iteration  outside tests/: no unordered_{map,set,multimap,
#                               multiset}, whose iteration order is unspecified
#                               and identical on every run, so the determinism
#                               auditor cannot see it
#   metric-name-registry        outside tests/: no "test." name literals (the
#                               prefix obs::MetricName reserves for tests)

cmake_minimum_required(VERSION 3.16)

set_property(GLOBAL PROPERTY tsce_rule_violations 0)

# Sets <out> to the offsets of the non-overlapping matches of <regex> in
# <text>, each as "<offset>:<length>".
function(find_all text regex out)
  set(hits)
  set(consumed 0)
  while(TRUE)
    string(REGEX MATCH "${regex}" hit "${text}")
    string(LENGTH "${hit}" len)
    if(len EQUAL 0)
      break()
    endif()
    string(FIND "${text}" "${hit}" at)
    math(EXPR offset "${consumed} + ${at}")
    list(APPEND hits "${offset}:${len}")
    math(EXPR skip "${at} + ${len}")
    string(SUBSTRING "${text}" ${skip} -1 text)
    math(EXPR consumed "${consumed} + ${skip}")
  endwhile()
  set(${out} "${hits}" PARENT_SCOPE)
endfunction()

# Reports a violation at <offset> in <text> (the line of the offset's first
# non-newline character).
function(report path text offset rule message)
  math(EXPR upto "${offset} + 1")
  string(SUBSTRING "${text}" 0 ${upto} before)
  string(REGEX MATCHALL "\n" newlines "${before}")
  list(LENGTH newlines line)
  string(SUBSTRING "${text}" ${offset} 1 first)
  if(NOT first STREQUAL "\n")
    math(EXPR line "${line} + 1")
  endif()
  message("${path}:${line}: [${rule}] ${message}")
  get_property(count GLOBAL PROPERTY tsce_rule_violations)
  math(EXPR count "${count} + 1")
  set_property(GLOBAL PROPERTY tsce_rule_violations ${count})
endfunction()

# Reports every match of <regex> in <text> as a <rule> violation.
function(forbid path text regex rule message)
  find_all("${text}" "${regex}" hits)
  foreach(hit IN LISTS hits)
    string(REPLACE ":" ";" hit "${hit}")
    list(GET hit 0 offset)
    report("${path}" "${text}" ${offset} ${rule} "${message}")
  endforeach()
endfunction()

function(in_dir rel dir out)
  string(FIND "${rel}" "${dir}/" at)
  if(at EQUAL 0)
    set(${out} TRUE PARENT_SCOPE)
  else()
    set(${out} FALSE PARENT_SCOPE)
  endif()
endfunction()

function(check_file path rel)
  file(READ "${path}" source)
  # Blank `//` comments; the newline stays, so line numbers do not move.
  string(REGEX REPLACE "//[^\n]*" "" code "${source}")
  in_dir("${rel}" tests in_tests)
  in_dir("${rel}" src in_src)
  set(id "[A-Za-z0-9_]")

  if(NOT in_tests)
    set(rule deterministic-rng)
    set(why "non-deterministic randomness source; derive from util::Rng")
    forbid("${rel}" "${code}" "std::rand[^A-Za-z0-9_]" ${rule} "${why}")
    forbid("${rel}" "${code}" "[^A-Za-z0-9_]srand[ \t]*\\(" ${rule} "${why}")
    forbid("${rel}" "${code}" "random_device" ${rule} "${why}")
    forbid("${rel}" "${code}" "std::time[ \t]*\\(" ${rule} "${why}")
    forbid("${rel}" "${code}"
      "[^A-Za-z0-9_:.>]time[ \t]*\\([ \t]*(nullptr|NULL|0)[ \t]*\\)" ${rule} "${why}")

    forbid("${rel}" "${code}" "unordered_(map|set|multimap|multiset)"
      nondeterministic-iteration
      "unordered container; iterate an ordered container or a sorted vector")

    forbid("${rel}" "${code}" "\"test\\.${id}" metric-name-registry
      "the test. name prefix is reserved for tests/")
  endif()

  foreach(dir src/core src/analysis src/model)
    in_dir("${rel}" ${dir} hot)
    if(hot)
      forbid("${rel}" "${code}" "#[ \t]*include[ \t]*<iostream>" no-iostream-hot
        "<iostream> in a hot-path module; use <cstdio>")
    endif()
  endforeach()

  if(in_src)
    find_all("${code}" "[^\n]*(MachineId|StringId|AppIndex)[^\n]*" lines)
    foreach(hit IN LISTS lines)
      string(REPLACE ":" ";" hit "${hit}")
      list(GET hit 0 offset)
      list(GET hit 1 len)
      string(SUBSTRING "${code}" ${offset} ${len} line)
      if(line MATCHES "[=(,{?:<>][ \t]*-1([^0-9.]|$)" AND
         NOT line MATCHES "kInvalidId|kUnassigned")
        report("${rel}" "${code}" ${offset} invalid-id-sentinel
          "bare -1 used with an id type; use model::kInvalidId / model::kUnassigned")
      endif()
    endforeach()
  endif()

  if(rel MATCHES "\\.hpp$")
    if(NOT source MATCHES "(^|\n)[ \t]*#[ \t]*pragma[ \t]+once")
      report("${rel}" "${source}" 0 pragma-once "header is missing #pragma once")
    endif()
    forbid("${rel}" "${code}" "#[ \t]*ifndef[ \t]+${id}*_(H|HPP)_*([ \t\r\n]|$)"
      pragma-once "classic #ifndef include guard; use #pragma once")
  endif()
endfunction()

if(DEFINED FILE)
  if(NOT DEFINED AS)
    message(FATAL_ERROR "FILE mode needs -DAS=<repo-relative path>")
  endif()
  check_file("${FILE}" "${AS}")
elseif(DEFINED ROOT)
  set(globs)
  foreach(dir src tools bench examples tests)
    list(APPEND globs "${ROOT}/${dir}/*.cpp" "${ROOT}/${dir}/*.hpp")
  endforeach()
  file(GLOB_RECURSE files ${globs})
  list(SORT files)
  foreach(path IN LISTS files)
    file(RELATIVE_PATH rel "${ROOT}" "${path}")
    check_file("${path}" "${rel}")
  endforeach()
  list(LENGTH files scanned)
else()
  message(FATAL_ERROR "pass -DROOT=<repo> or -DFILE=<file> -DAS=<path>")
endif()

get_property(count GLOBAL PROPERTY tsce_rule_violations)
if(count GREATER 0)
  message(FATAL_ERROR "${count} source-rule violation(s)")
endif()
if(DEFINED ROOT)
  message("source rules: ${scanned} files, 0 violations")
endif()
