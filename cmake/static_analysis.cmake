# Static-analysis convenience targets:
#   cmake --build build --target tidy          # clang-tidy (.clang-tidy checks)
#   cmake --build build --target format-check  # clang-format --dry-run -Werror
# Both degrade to a skip message when the LLVM tools are not installed (the
# CI matrix has them; minimal build containers may not).  The project's own
# source rules run as tier-1 ctest cases (tests/gates).

file(GLOB_RECURSE TSCE_TIDY_SOURCES CONFIGURE_DEPENDS
  ${CMAKE_SOURCE_DIR}/src/*.cpp
  ${CMAKE_SOURCE_DIR}/tools/*.cpp)
find_program(TSCE_CLANG_TIDY_EXE NAMES clang-tidy clang-tidy-19 clang-tidy-18
  clang-tidy-17 clang-tidy-16 clang-tidy-15)
if(TSCE_CLANG_TIDY_EXE)
  add_custom_target(tidy
    COMMAND ${TSCE_CLANG_TIDY_EXE} -p ${CMAKE_BINARY_DIR} --quiet
            ${TSCE_TIDY_SOURCES}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-tidy (checks from .clang-tidy, WarningsAsErrors=*) over src/ and tools/"
    VERBATIM)
else()
  add_custom_target(tidy
    COMMAND ${CMAKE_COMMAND} -E echo
            "tidy: clang-tidy not found in PATH -- skipped (install clang-tidy to run)"
    VERBATIM)
endif()

file(GLOB_RECURSE TSCE_FORMAT_SOURCES CONFIGURE_DEPENDS
  ${CMAKE_SOURCE_DIR}/src/*.cpp ${CMAKE_SOURCE_DIR}/src/*.hpp
  ${CMAKE_SOURCE_DIR}/tools/*.cpp
  ${CMAKE_SOURCE_DIR}/tests/*.cpp ${CMAKE_SOURCE_DIR}/tests/*.hpp
  ${CMAKE_SOURCE_DIR}/bench/*.cpp ${CMAKE_SOURCE_DIR}/bench/*.hpp
  ${CMAKE_SOURCE_DIR}/examples/*.cpp
  ${CMAKE_SOURCE_DIR}/cmake/*.cpp)
find_program(TSCE_CLANG_FORMAT_EXE NAMES clang-format clang-format-19
  clang-format-18 clang-format-17 clang-format-16 clang-format-15)
if(TSCE_CLANG_FORMAT_EXE)
  add_custom_target(format-check
    COMMAND ${TSCE_CLANG_FORMAT_EXE} --dry-run -Werror ${TSCE_FORMAT_SOURCES}
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
    COMMENT "clang-format --dry-run -Werror against .clang-format"
    VERBATIM)
else()
  add_custom_target(format-check
    COMMAND ${CMAKE_COMMAND} -E echo
            "format-check: clang-format not found in PATH -- skipped"
    VERBATIM)
endif()
