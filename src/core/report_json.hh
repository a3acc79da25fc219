/**
 * @file
 * Machine-readable JSON export of JrpmReport, so the batch driver's
 * and the bench harnesses' results are scriptable (CI assertions,
 * dashboards, regression diffing) instead of screen-scraped from the
 * text tables.  JsonValue, jsonParse() and jsonEscape() come with it
 * (common/json.hh).
 */

#ifndef JRPM_CORE_REPORT_JSON_HH
#define JRPM_CORE_REPORT_JSON_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "core/jrpm.hh"

namespace jrpm
{

/** One report as a JSON object (phases, selections, speedups,
 *  oracle verdict, crystal provenance). */
std::string reportJson(const JrpmReport &rep);

/** Several reports as a JSON array, one per line (the
 *  --report-out file format). */
std::string reportsJson(const std::vector<JrpmReport> &reps);

} // namespace jrpm

#endif // JRPM_CORE_REPORT_JSON_HH
