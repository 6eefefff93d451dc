/// \file hot.hpp
/// TSCE_HOT marks functions on the steady-state decode/evaluate hot path.
///
/// The marker hints the optimizer ([[gnu::hot]] where supported) and names
/// the frames that must not allocate per call.  The gate is the heap-counting
/// test (tests/core/no_alloc_decode_test.cpp): it drives warmed loops through
/// the decode and memo paths, the LP FTRAN/BTRAN kernels and the histogram
/// record path, and asserts zero allocations.  A new TSCE_HOT frame needs a
/// loop there that reaches it.

#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define TSCE_HOT [[gnu::hot]]
#else
#define TSCE_HOT
#endif
