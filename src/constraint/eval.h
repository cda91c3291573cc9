#ifndef PREVER_CONSTRAINT_EVAL_H_
#define PREVER_CONSTRAINT_EVAL_H_

#include "common/status.h"
#include "constraint/ast.h"
#include "constraint/context.h"

namespace prever::constraint {

// The tree-walking interpreter: the differential oracle for the compiled
// path (program.h), and the only evaluator of FORALL and `outer.` shapes,
// which the catalog refuses to admit.

/// Evaluates an arbitrary expression to a Value.
Result<storage::Value> Evaluate(const Expr& expr, const EvalContext& ctx);

/// Evaluates a constraint; error if the expression is not Boolean-typed.
Result<bool> EvaluateBool(const Expr& expr, const EvalContext& ctx);

}  // namespace prever::constraint

#endif  // PREVER_CONSTRAINT_EVAL_H_
