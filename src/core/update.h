#ifndef PREVER_CORE_UPDATE_H_
#define PREVER_CORE_UPDATE_H_

#include <string>

#include "common/sim_clock.h"
#include "common/status.h"
#include "constraint/context.h"
#include "storage/database.h"

namespace prever::core {

/// Privacy label of a model element (data / update / constraint) in a given
/// instantiation — the three axes of Figure 1's application matrix.
enum class Privacy : uint8_t { kPublic = 0, kPrivate = 1 };

/// The unit of change in PReVer (§3.2): produced by a data producer,
/// verified against constraints/regulations, then incorporated into the
/// database and recorded on the ledger (Fig. 2 steps 1–3).
struct Update {
  std::string id;          ///< Globally unique (producer-chosen).
  std::string producer;    ///< Data producer's participant id.
  SimTime timestamp = 0;   ///< Production time (drives WINDOW regulations).
  /// Named fields visible to constraints as `update.<name>`.
  constraint::UpdateFields fields;
  /// The state change to apply once verified.
  storage::Mutation mutation;

  /// Canonical encoding: hashed for ledger entries and consensus payloads.
  Bytes Encode() const;
  static Result<Update> Decode(const Bytes& data);
};

/// Outcome statistics every engine reports (used by the benches).
struct EngineStats {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected_constraint = 0;  ///< Failed verification (step 2).
  uint64_t rejected_error = 0;       ///< Malformed / apply failures.
};

}  // namespace prever::core

#endif  // PREVER_CORE_UPDATE_H_
