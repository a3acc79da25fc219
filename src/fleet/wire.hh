/**
 * @file
 * Wire format shared by the fleet supervisor, its workers and the
 * campaign manifest: a forge::CaseResult serialized as one line of
 * JSON.  Workers stream finished cases to the supervisor over their
 * stdout pipe; the supervisor journals the same object as the
 * payload of a manifest `case` record, so a record written once is
 * readable by every consumer (resume, analytics,
 * scripts/fleet_manifest.py).
 *
 * Records embed free-form error/detail strings from crashed runs, and
 * a reader must never trust a torn or partial one: the manifest
 * seals every line, and caseResultFromJson() requires every member.
 */

#ifndef JRPM_FLEET_WIRE_HH
#define JRPM_FLEET_WIRE_HH

#include <string>

#include "common/json.hh"
#include "forge/campaign.hh"

namespace jrpm
{
namespace fleet
{

/** One CaseResult as a single-line JSON object (no trailing
 *  newline). */
std::string caseResultJson(const forge::CaseResult &cr);

/** Parse caseResultJson() output.  Every member is required and
 *  read strictly (JsonMembers): an absent member, one of the wrong
 *  kind, or an integer outside its field's range fails the record.
 *  @return false (and *err) then; @p out is untouched. */
bool caseResultFromJson(const std::string &text,
                        forge::CaseResult &out,
                        std::string *err = nullptr);
/** The same, over a record already parsed (a manifest line's
 *  payload). */
bool caseResultFromJson(const JsonValue &record, forge::CaseResult &out,
                        std::string *err = nullptr);

} // namespace fleet
} // namespace jrpm

#endif // JRPM_FLEET_WIRE_HH
