#include "constraint/constraint.h"

#include "constraint/eval.h"
#include "constraint/parser.h"
#include "constraint/program.h"
#include "mutate/mutation.h"

namespace prever::constraint {

Status ConstraintCatalog::Add(const std::string& name, ConstraintScope scope,
                              ConstraintVisibility visibility,
                              std::string_view text) {
  PREVER_ASSIGN_OR_RETURN(ExprPtr expr, ParseConstraint(text));
  return AddParsed(Constraint(name, scope, visibility, std::move(expr)));
}

Status ConstraintCatalog::AddParsed(Constraint constraint) {
  for (const Constraint& c : constraints_) {
    if (c.name == constraint.name) {
      return Status::AlreadyExists("constraint '" + constraint.name +
                                   "' already registered");
    }
  }
  auto compiled = CompileConstraint(*constraint.expr);
  if (!compiled.ok()) {
    return Status::NotSupported("constraint '" + constraint.name +
                                "': " + compiled.status().message());
  }
  constraints_.push_back(std::move(constraint));
  ++revision_;
  return Status::Ok();
}

Status ConstraintCatalog::Remove(const std::string& name) {
  for (auto it = constraints_.begin(); it != constraints_.end(); ++it) {
    if (it->name == name) {
      constraints_.erase(it);
      ++revision_;
      return Status::Ok();
    }
  }
  return Status::NotFound("no constraint '" + name + "'");
}

Result<const Constraint*> ConstraintCatalog::Find(
    const std::string& name) const {
  for (const Constraint& c : constraints_) {
    if (c.name == name) return &c;
  }
  return Status::NotFound("no constraint '" + name + "'");
}

Status ConstraintCatalog::CheckAll(const EvalContext& ctx) const {
  for (const Constraint& c : constraints_) {
    PREVER_ASSIGN_OR_RETURN(bool ok, EvaluateBool(*c.expr, ctx));
    if (PREVER_MUTATION(CATALOG_IGNORE_VIOLATION, !ok, false)) {
      return Status::ConstraintViolation("update violates constraint '" +
                                         c.name + "': " + c.expr->ToString());
    }
  }
  return Status::Ok();
}

}  // namespace prever::constraint
