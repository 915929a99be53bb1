#include "ckpt/checkpoint.h"

#include <cstdio>

#include "ckpt/serde.h"

namespace mosaic {
namespace ckpt {

namespace {

constexpr char kMagic[8] = {'M', 'O', 'S', 'A', 'I', 'C', 'K', 'P'};

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out = "0x";
    for (int shift = 60; shift >= 0; shift -= 4)
        out += digits[(v >> shift) & 0xF];
    return out;
}

std::string
diag(const std::string &path, const std::string &what)
{
    return "checkpoint " + path + ": " + what;
}

}  // namespace

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
writeFile(const std::string &path, const Header &header,
          const std::vector<std::uint8_t> &payload)
{
    Writer w;
    for (const char c : kMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kFormatVersion);
    w.u64(header.fingerprint);
    w.u64(header.resumeCycle);
    w.u8(0);  // engine byte: serial
    w.u64(payload.size());

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return diag(path, "cannot open for writing");
    bool ok = std::fwrite(w.buffer().data(), 1, w.size(), f) == w.size();
    if (ok && !payload.empty())
        ok = std::fwrite(payload.data(), 1, payload.size(), f) ==
             payload.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        return diag(path, "short write");
    return "";
}

std::string
readFile(const std::string &path, std::uint64_t expectFingerprint,
         Header &header, std::vector<std::uint8_t> &payload)
{
    payload.clear();

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return diag(path, "cannot open for reading");
    std::vector<std::uint8_t> file;
    std::uint8_t chunk[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        file.insert(file.end(), chunk, chunk + got);
    std::fclose(f);

    // Fixed header: magic(8) version(4) fingerprint(8) resume(8)
    // engine(1) payloadSize(8).
    constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 1 + 8;
    if (file.size() < kHeaderBytes)
        return diag(path, "truncated file (want at least " +
                              std::to_string(kHeaderBytes) +
                              " header bytes, have " +
                              std::to_string(file.size()) + ")");

    Reader r(file);
    char magic[9] = {};
    for (int i = 0; i < 8; ++i)
        magic[i] = static_cast<char>(r.u8());
    bool magic_ok = true;
    for (int i = 0; i < 8; ++i)
        magic_ok = magic_ok && magic[i] == kMagic[i];
    if (!magic_ok) {
        std::string printable;
        for (int i = 0; i < 8; ++i) {
            const char c = magic[i];
            printable += (c >= 0x20 && c < 0x7F) ? c : '?';
        }
        return diag(path, "invalid value '" + printable +
                              "' for magic (want MOSAICKP; not a mosaic "
                              "checkpoint)");
    }

    const std::uint32_t version = r.u32();
    if (version != kFormatVersion)
        return diag(path, "invalid value '" + std::to_string(version) +
                              "' for format version (want " +
                              std::to_string(kFormatVersion) + ")");

    header.fingerprint = r.u64();
    header.resumeCycle = r.u64();
    const std::uint8_t engine = r.u8();
    if (engine == 1)
        return diag(path, "image was captured by the removed sharded engine");
    if (engine != 0)
        return diag(path, "invalid value '" + std::to_string(engine) +
                              "' for engine mode (want 0)");

    if (expectFingerprint != 0 && header.fingerprint != expectFingerprint)
        return diag(path,
                    "invalid value '" + hex64(header.fingerprint) +
                        "' for config fingerprint (want " +
                        hex64(expectFingerprint) +
                        "; the restore config must match the checkpointed "
                        "config)");

    const std::uint64_t payload_size = r.u64();
    const std::size_t have = file.size() - kHeaderBytes;
    if (payload_size != have)
        return diag(path, "truncated file (want " +
                              std::to_string(payload_size) +
                              " payload bytes, have " + std::to_string(have) +
                              ")");

    payload.assign(file.begin() + static_cast<long>(kHeaderBytes),
                   file.end());
    return "";
}

}  // namespace ckpt
}  // namespace mosaic
