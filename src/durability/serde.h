#ifndef BEAS_DURABILITY_SERDE_H_
#define BEAS_DURABILITY_SERDE_H_

#include "asx/access_constraint.h"
#include "common/result.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value_codec.h"

namespace beas {
namespace durability {

// ByteSink, ByteReader and the value/row codec live in types/value_codec.h,
// shared with the BNW1 wire protocol. Strings encode as their bytes, so
// replay re-interns them in LSN order and reproduces the original
// first-appearance dictionary codes.

/// \name Schema / constraint serde (DDL records, segment headers).
/// @{
void WriteSchema(ByteSink* sink, const Schema& schema);
Result<Schema> ReadSchema(ByteReader* r);

void WriteConstraint(ByteSink* sink, const AccessConstraint& c);
Result<AccessConstraint> ReadConstraint(ByteReader* r);
/// @}

}  // namespace durability
}  // namespace beas

#endif  // BEAS_DURABILITY_SERDE_H_
