/// \file hot.hpp
/// TSCE_HOT marks functions on the steady-state decode/evaluate hot path.
///
/// The marker does two things: it hints the optimizer ([[gnu::hot]] where
/// supported), and it roots the tsce_analyze `transitive-hot-alloc` rule,
/// which forbids per-call heap allocation (`new`, make_unique/make_shared,
/// push_back without a visible reserve) in the body and in every function
/// it reaches.  The
/// runtime counterpart is the heap-counting decode test
/// (tests/core/no_alloc_decode_test.cpp), which asserts zero allocations on
/// the warmed-up decode path.

#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define TSCE_HOT [[gnu::hot]]
#else
#define TSCE_HOT
#endif
