#ifndef PREVER_CONSTRAINT_CONSTRAINT_H_
#define PREVER_CONSTRAINT_CONSTRAINT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "constraint/ast.h"
#include "constraint/context.h"

namespace prever::constraint {

/// Who authored the constraint (§3.1/§3.2): internal constraints come from
/// the data owner and scope a single database; regulations come from an
/// external authority and may span the databases of multiple owners.
enum class ConstraintScope : uint8_t { kInternal = 0, kRegulation = 1 };

/// Privacy of the constraint text itself (§1: managers may "not necessarily
/// [be] aware of the constraints"). Private constraints are only evaluable
/// by engines that support hidden predicates.
enum class ConstraintVisibility : uint8_t { kPublic = 0, kPrivate = 1 };

/// A named, parsed constraint.
struct Constraint {
  std::string name;
  ConstraintScope scope = ConstraintScope::kInternal;
  ConstraintVisibility visibility = ConstraintVisibility::kPublic;
  ExprPtr expr;

  Constraint() = default;
  Constraint(std::string name, ConstraintScope scope,
             ConstraintVisibility visibility, ExprPtr expr)
      : name(std::move(name)),
        scope(scope),
        visibility(visibility),
        expr(std::move(expr)) {}

  Constraint(const Constraint& o)
      : name(o.name),
        scope(o.scope),
        visibility(o.visibility),
        expr(o.expr ? o.expr->Clone() : nullptr) {}
  Constraint& operator=(const Constraint& o) {
    name = o.name;
    scope = o.scope;
    visibility = o.visibility;
    expr = o.expr ? o.expr->Clone() : nullptr;
    return *this;
  }
  Constraint(Constraint&&) = default;
  Constraint& operator=(Constraint&&) = default;
};

/// The set of constraints an engine must enforce. Authorities add to it
/// (step 0 of Fig. 2); the verification step evaluates every applicable
/// entry against each incoming update.
class ConstraintCatalog {
 public:
  /// Parses and registers a constraint; fails on parse error, name clash,
  /// or a shape the compiler rejects.
  Status Add(const std::string& name, ConstraintScope scope,
             ConstraintVisibility visibility, std::string_view text);

  /// Registers a pre-built constraint. A constraint that does not compile
  /// (FORALL, `outer.`, bare `group`, nested aggregates) is NotSupported
  /// and leaves the catalog unchanged: engines evaluate only bytecode.
  Status AddParsed(Constraint constraint);

  Status Remove(const std::string& name);

  const std::vector<Constraint>& constraints() const { return constraints_; }
  size_t size() const { return constraints_.size(); }

  Result<const Constraint*> Find(const std::string& name) const;

  /// Monotone counter bumped by every successful Add/AddParsed/Remove.
  /// Compiled-verifier caches key their validity on it, so constraints
  /// added after the first verification are picked up lazily.
  uint64_t revision() const { return revision_; }

  /// Evaluates every constraint against (db, update, now) with the
  /// tree-walking interpreter — the oracle CompiledVerifier::VerifyAll is
  /// tested against, never an engine's path. Returns OK if all pass,
  /// ConstraintViolation naming the first failed constraint otherwise, or
  /// the evaluation error for ill-typed constraints.
  Status CheckAll(const EvalContext& ctx) const;

 private:
  std::vector<Constraint> constraints_;
  uint64_t revision_ = 0;
};

}  // namespace prever::constraint

#endif  // PREVER_CONSTRAINT_CONSTRAINT_H_
