/**
 * @file
 * Versioned checkpoint file container (see DESIGN.md §14).
 *
 * A checkpoint image is a header followed by an opaque payload written
 * through ckpt::Writer:
 *
 *   magic      8 bytes  "MOSAICKP"
 *   version    u32      kFormatVersion
 *   fingerprint u64     FNV-1a over the canonical config string
 *   resumeCycle u64     quiesce point R the payload was captured at
 *   engine     u8       always 0; 1 marked images of the removed
 *                       sharded engine, which are rejected by name
 *   payloadSize u64     byte length of what follows
 *   payload    ...      component sections (runner-defined order)
 *
 * Validation failures return a parse_num.h-style diagnostic
 * ("checkpoint <path>: invalid value '<x>' for <field> (want <y>)")
 * instead of crashing or partially restoring: callers must treat a
 * non-empty error string as fatal before touching the payload.
 */

#ifndef MOSAIC_CKPT_CHECKPOINT_H
#define MOSAIC_CKPT_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace mosaic {
namespace ckpt {

constexpr std::uint32_t kFormatVersion = 1;

/** The fixed-size file header (everything before the payload). */
struct Header
{
    std::uint64_t fingerprint = 0;
    std::uint64_t resumeCycle = 0;
};

/** FNV-1a 64-bit hash (config fingerprints). */
std::uint64_t fnv1a(const std::string &s);

/**
 * Writes @p header + @p payload to @p path.
 * @return "" on success, else a diagnostic naming the path.
 */
std::string writeFile(const std::string &path, const Header &header,
                      const std::vector<std::uint8_t> &payload);

/**
 * Reads and validates @p path: magic, format version, payload size,
 * and — when @p expectFingerprint is nonzero — the config fingerprint.
 * On success fills @p header and @p payload and returns ""; on any
 * failure returns a diagnostic and leaves @p payload empty.
 */
std::string readFile(const std::string &path,
                     std::uint64_t expectFingerprint, Header &header,
                     std::vector<std::uint8_t> &payload);

}  // namespace ckpt
}  // namespace mosaic

#endif  // MOSAIC_CKPT_CHECKPOINT_H
