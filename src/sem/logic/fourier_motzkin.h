#ifndef SEMCOR_SEM_LOGIC_FOURIER_MOTZKIN_H_
#define SEMCOR_SEM_LOGIC_FOURIER_MOTZKIN_H_

#include <vector>

#include "sem/logic/linear.h"

namespace semcor {

/// Options bounding the elimination (FM is worst-case exponential).
struct FmOptions {
  int max_constraints = 20000;   ///< bail out when the system grows past this
  int64_t max_coefficient = (int64_t{1} << 40);  ///< overflow guard
};

/// Attempts to prove that the conjunction of `constraints` has no rational
/// solution (which implies no integer solution — sound for validity proofs).
/// Returns true only on a completed unsat proof; false means "satisfiable or
/// gave up", never "proved sat".
bool FmProvesUnsat(std::vector<LinearConstraint> constraints,
                   const FmOptions& options = FmOptions());

/// Searches for an integer assignment in [-bound, bound]^n satisfying all
/// constraints, by depth-first search with per-variable pruning. Complete
/// within the box; returns false if no boxed witness exists (the system may
/// still be satisfiable outside the box). `max_nodes` caps the search;
/// `nodes`, when given, receives the number of assignments tried. Variables
/// are ordered by first occurrence and each takes 0, 1, -1, 2, -2, ... in
/// turn. `witness` is written only when one is found.
bool FindIntegerWitness(const std::vector<LinearConstraint>& constraints,
                        int64_t bound, int64_t max_nodes,
                        std::map<VarRef, int64_t>* witness,
                        int64_t* nodes = nullptr);

}  // namespace semcor

#endif  // SEMCOR_SEM_LOGIC_FOURIER_MOTZKIN_H_
