#ifndef PREVER_CONSTRAINT_CONTEXT_H_
#define PREVER_CONSTRAINT_CONTEXT_H_

#include <map>
#include <string>

#include "common/sim_clock.h"
#include "storage/database.h"

namespace prever::constraint {

/// Named fields of the incoming update visible to constraints as
/// `update.<name>` (or bare `<name>` at top level).
using UpdateFields = std::map<std::string, storage::Value>;

/// Everything a constraint evaluation can see: current database state, the
/// candidate update's fields, and the current (simulated) time for WINDOW
/// aggregates.
struct EvalContext {
  const storage::Database* db = nullptr;
  const UpdateFields* update = nullptr;
  SimTime now = 0;
  /// Bound by FORALL evaluation: the current group value, visible in the
  /// body as the reserved identifier `group`.
  const storage::Value* group = nullptr;
};

}  // namespace prever::constraint

#endif  // PREVER_CONSTRAINT_CONTEXT_H_
