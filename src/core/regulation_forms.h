#ifndef PREVER_CORE_REGULATION_FORMS_H_
#define PREVER_CORE_REGULATION_FORMS_H_

#include <vector>

#include "constraint/constraint.h"
#include "constraint/linear.h"

namespace prever::core {

/// Per-engine cache of the linear bound forms of a regulation catalog,
/// extracted once per catalog revision instead of once per submitted update.
/// The forms' aggregate Exprs die on re-extraction; CompiledVerifier keeps
/// its own copy of each aggregate it compiles, so nothing it caches points
/// at them.
class RegulationForms {
 public:
  /// `regulations` must outlive this object.
  explicit RegulationForms(const constraint::ConstraintCatalog* regulations)
      : regulations_(regulations) {}

  /// Forms of constraint `index` (aligned with regulations->constraints()),
  /// re-extracted only when the catalog's revision moved. Extraction errors
  /// (constraint outside the linear class) surface per lookup, exactly like
  /// the previous extract-per-submit behavior.
  Result<const std::vector<constraint::LinearBoundForm>*> ForConstraint(
      size_t index);

 private:
  const constraint::ConstraintCatalog* regulations_;
  bool ready_ = false;
  uint64_t revision_ = 0;
  /// One entry per constraint: the forms, or the extraction error.
  std::vector<Result<std::vector<constraint::LinearBoundForm>>> forms_;
};

}  // namespace prever::core

#endif  // PREVER_CORE_REGULATION_FORMS_H_
