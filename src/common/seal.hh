/**
 * @file
 * The checksum seal and the atomic write shared by every file the
 * stack keeps on disk.
 *
 * A seal is ` crc <fnv64-hex>` appended to a payload: fleet manifest
 * records are one sealed line each, and crystal and forge corpus
 * entries are one sealed JSON document per file.  A truncated or
 * bit-flipped payload no longer reproduces its seal, so readers
 * reject it before trusting any field.
 */

#ifndef JRPM_COMMON_SEAL_HH
#define JRPM_COMMON_SEAL_HH

#include <string>

namespace jrpm
{

/** Append ` crc <fnv64-hex>` to @p record (no newline). */
std::string sealRecord(const std::string &record);

/** Verify and strip a sealed record.  @return false on a missing or
 *  wrong checksum (i.e. a torn or corrupted record). */
bool unsealRecord(const std::string &line, std::string &record);

/** A whole file's text: the sealed document and a final newline. */
std::string sealDocument(const std::string &doc);

/** Verify a file written by sealDocument() and extract its document.
 *  @return false when the seal or the final newline is missing or
 *  wrong, so even a file short of its last byte is rejected. */
bool unsealDocument(const std::string &text, std::string &doc);

/**
 * Write @p text to @p path through a temporary file renamed into
 * place, so no reader ever sees a half-written file under the real
 * name.  The temporary is `<path>.tmp.<hex>`, unique per process and
 * per write, so writers sharing a directory never collide.  There is
 * no fsync: the file survives a killed process, not a power loss.
 * @return false (after a warn()) on I/O error.
 */
bool writeFileAtomic(const std::string &path, const std::string &text);

} // namespace jrpm

#endif // JRPM_COMMON_SEAL_HH
