#include "mutate/mutation.h"

#ifdef PREVER_MUTATIONS

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace prever::mutate {

namespace {

constexpr SiteInfo kSites[] = {
#define PREVER_MUTATION_SITE(id, category, location, description, detector) \
  {MutationSite::id, #id, MutationCategory::category, location, description, \
   detector},
#include "mutate/sites.def"
#undef PREVER_MUTATION_SITE
};
static_assert(sizeof(kSites) / sizeof(kSites[0]) == kNumMutationSites);

// kNumSites == no active mutant.
std::atomic<int> g_active{static_cast<int>(MutationSite::kNumSites)};
std::atomic<bool> g_reached[kNumMutationSites];

/// One-time PREVER_MUTATION=<name> environment selection. An unknown name
/// aborts loudly: silently running unmutated would report a fake kill.
bool InitFromEnv() {
  const char* env = std::getenv("PREVER_MUTATION");
  if (env == nullptr || *env == '\0') return true;
  const SiteInfo* info = FindSiteByName(env);
  if (info == nullptr) {
    std::fprintf(stderr, "PREVER_MUTATION: unknown site '%s'\n", env);
    std::abort();
  }
  g_active.store(static_cast<int>(info->site), std::memory_order_relaxed);
  std::fprintf(stderr, "PREVER_MUTATION: %s active (%s: %s)\n", info->name,
               info->location, info->description);
  return true;
}

}  // namespace

const SiteInfo* AllSites() {
  static const bool env_init = InitFromEnv();
  (void)env_init;
  return kSites;
}

const SiteInfo* FindSiteByName(std::string_view name) {
  for (const SiteInfo& info : kSites) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

const char* CategoryName(MutationCategory category) {
  switch (category) {
    case MutationCategory::kConstraint:
      return "constraint";
    case MutationCategory::kCrypto:
      return "crypto";
    case MutationCategory::kLedger:
      return "ledger";
    case MutationCategory::kConsensus:
      return "consensus";
    case MutationCategory::kEngine:
      return "engine";
  }
  return "unknown";
}

bool MutationActive(MutationSite site) {
  static const bool env_init = InitFromEnv();
  (void)env_init;
  int idx = static_cast<int>(site);
  g_reached[idx].store(true, std::memory_order_relaxed);
  return g_active.load(std::memory_order_relaxed) == idx;
}

void ActivateSite(MutationSite site) {
  g_active.store(static_cast<int>(site), std::memory_order_relaxed);
}

void ClearActiveSite() {
  g_active.store(static_cast<int>(MutationSite::kNumSites),
                 std::memory_order_relaxed);
}

MutationSite ActiveSite() {
  return static_cast<MutationSite>(g_active.load(std::memory_order_relaxed));
}

bool SiteReached(MutationSite site) {
  return g_reached[static_cast<size_t>(site)].load(std::memory_order_relaxed);
}

void ResetReachedFlags() {
  for (auto& flag : g_reached) flag.store(false, std::memory_order_relaxed);
}

}  // namespace prever::mutate

#else  // !PREVER_MUTATIONS

// The harness compiles to nothing in regular builds; this anchor keeps the
// library non-empty for linkers that reject archives with no symbols.
namespace prever::mutate {
void MutationHarnessDisabledAnchor() {}
}  // namespace prever::mutate

#endif  // PREVER_MUTATIONS
