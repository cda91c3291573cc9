#ifndef PREVER_MUTATE_MUTATION_H_
#define PREVER_MUTATE_MUTATION_H_

// Runtime mutation harness for the verification layer (mull-inspired).
//
// Verification-critical decision points are annotated in place:
//
//   if (PREVER_MUTATION(RSA_VERIFY_ACCEPT, recovered == expected, true)) ...
//
// In the default build (PREVER_MUTATIONS undefined) the macro expands to
// `(original)` — the mutant expression never enters the token stream, so
// hot paths are byte-for-byte identical to an uninstrumented build; there
// is no branch, no registry, no symbol dependency.
//
// Under -DPREVER_MUTATIONS=ON the macro evaluates the mutant expression
// iff its site is the single active mutation, and records that the site
// was reached. Exactly one mutant is active at a time — either selected
// in-process by the mutation_kill_test driver, or via the environment:
//
//   PREVER_MUTATION=EVAL_CMP_LE_EXCLUSIVE ./tests/sim_engine_diff_test
//
// The full site table lives in mutate/sites.def; a site id used here but
// absent from the table is a compile error.

#if !defined(PREVER_MUTATIONS)

#define PREVER_MUTATION(site, original, mutant) (original)

#else  // PREVER_MUTATIONS

#include <cstddef>
#include <string_view>

namespace prever::mutate {

enum class MutationSite : int {
#define PREVER_MUTATION_SITE(id, category, location, description, detector) \
  id,
#include "mutate/sites.def"
#undef PREVER_MUTATION_SITE
  kNumSites,
};

enum class MutationCategory {
  kConstraint,
  kCrypto,
  kLedger,
  kConsensus,
  kEngine,
};

struct SiteInfo {
  MutationSite site;
  const char* name;        // Activation name, e.g. "EVAL_CMP_LE_EXCLUSIVE".
  MutationCategory category;
  const char* location;    // Source file hosting the decision point.
  const char* description; // What the mutant does.
  const char* detector;    // Suite expected to kill it first.
};

inline constexpr size_t kNumMutationSites =
    static_cast<size_t>(MutationSite::kNumSites);

/// The full registry, indexed by MutationSite value.
const SiteInfo* AllSites();

/// Looks up a site by its activation name; nullptr if unknown.
const SiteInfo* FindSiteByName(std::string_view name);

const char* CategoryName(MutationCategory category);

/// Hot-path hook behind PREVER_MUTATION(): marks the site reached and
/// reports whether it is the active mutant. Thread-safe (the engines run
/// verification on thread pools).
bool MutationActive(MutationSite site);

/// Selects the single active mutant (driver use). Overrides any
/// PREVER_MUTATION environment selection.
void ActivateSite(MutationSite site);
void ClearActiveSite();

/// The active mutant, or kNumSites when running unmutated.
MutationSite ActiveSite();

/// Reached-tracking: a mutant whose site never executes cannot be killed;
/// the driver reports such sites separately instead of calling them killed.
bool SiteReached(MutationSite site);
void ResetReachedFlags();

}  // namespace prever::mutate

#define PREVER_MUTATION(site, original, mutant)                           \
  (::prever::mutate::MutationActive(::prever::mutate::MutationSite::site) \
       ? (mutant)                                                         \
       : (original))

#endif  // PREVER_MUTATIONS
#endif  // PREVER_MUTATE_MUTATION_H_
