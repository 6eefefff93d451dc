# Adds the benchmark to the root project without editing its CMakeLists.txt.
# Passed as CMAKE_PROJECT_tsce_alloc_INCLUDE, this runs inside the root
# project() call and schedules bench/e2e/CMakeLists.txt for the end of the
# root CMakeLists.txt, so every root-level option, compile flag and library
# target is in place when the benchmark is defined.  (A deferred call may not
# create a subdirectory, hence include() rather than add_subdirectory().
# cmake_language(DEFER) needs CMake 3.19 or later.)
cmake_language(DEFER CALL include bench/e2e/CMakeLists.txt)
