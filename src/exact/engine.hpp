// Engine selector shared by every exact solver in the library.
//
// The exact solvers (ExactMM machine minimization, the exact_mm_feasibility
// probe, and the exact-ISE minimum-calibration search) each exist in two
// implementations:
//
//   * kBranchBound — the original depth-first branch-and-bound. Simple,
//     allocation-light, and kept permanently wired as the differential
//     oracle (the same role the dense tableau plays for the revised
//     simplex): tests sweep both engines and require identical optima.
//   * kStateSpace  — layered exploration over hash-consed schedule states
//     with merge and dominance pruning (src/exact/state_space.hpp). The
//     default: it certifies optima at instance sizes the DFS cannot touch
//     because permuted placement orders collapse into one state.
#pragma once

#include <string>

namespace calisched {

enum class ExactEngine {
  kBranchBound,  ///< depth-first branch-and-bound (differential oracle)
  kStateSpace,   ///< hash-consed layered state graph (default)
};

[[nodiscard]] inline std::string to_string(ExactEngine engine) {
  return engine == ExactEngine::kBranchBound ? "bnb" : "state-space";
}

}  // namespace calisched
