/**
 * @file
 * Structural validation of the RunReport JSON document
 * (schema_version 3). Shared by shrimp_analyze (--validate) and the
 * test suite; the causal log, spans and gauges alike, is checked by
 * causal_read::load and causal_read::validate.
 *
 * Validation is strict about what the writer promises — required
 * fields present with the right JSON types, the schema version an
 * exact match, bucket arrays numeric — and tolerant of additive
 * extras, so a consumer built against schema N keeps accepting N's
 * documents after fields are appended (a version bump signals meaning
 * changes).
 */

#ifndef SHRIMP_SIM_REPORT_SCHEMA_HH
#define SHRIMP_SIM_REPORT_SCHEMA_HH

#include <string>

namespace shrimp
{

struct JsonValue;

/**
 * Check @p doc against the RunReport schema. On failure returns
 * false with a human-readable reason in @p err (if non-null).
 */
bool validateReport(const JsonValue &doc, std::string *err = nullptr);

} // namespace shrimp

#endif // SHRIMP_SIM_REPORT_SCHEMA_HH
