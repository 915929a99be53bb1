/**
 * @file
 * Checkpoint container format tests (DESIGN.md §14): every malformed
 * image must produce a named diagnostic from ckpt::readFile -- never a
 * crash, never a partial restore -- and the serde Reader must latch its
 * first error. Positive path: write/read round-trips header and
 * payload exactly. A bad --restore image ends the run with exit code 1
 * and the diagnostic, not an abort.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/serde.h"
#include "runner/simulation.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "mosaic_fmt_" + name + ".ckpt";
}

std::vector<std::uint8_t>
samplePayload()
{
    ckpt::Writer w;
    w.section(0x54455354);
    w.u64(41);
    w.boolean(true);
    w.f64(2.5);
    w.str("payload");
    return w.buffer();
}

/** Writes a valid image and returns its path. */
std::string
writeValid(const std::string &name, std::uint64_t fingerprint = 0xF00D)
{
    ckpt::Header h;
    h.fingerprint = fingerprint;
    h.resumeCycle = 123456;
    const std::string path = tempPath(name);
    EXPECT_EQ(ckpt::writeFile(path, h, samplePayload()), "");
    return path;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open());
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
dump(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(CkptFormatTest, RoundTripsHeaderAndPayload)
{
    const std::string path = writeValid("roundtrip", 0xABCDEF);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(ckpt::readFile(path, 0xABCDEF, h, payload), "");
    EXPECT_EQ(h.fingerprint, 0xABCDEFu);
    EXPECT_EQ(h.resumeCycle, 123456u);
    EXPECT_EQ(payload, samplePayload());

    ckpt::Reader r(payload);
    r.section(0x54455354, "test");
    EXPECT_EQ(r.u64(), 41u);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.f64(), 2.5);
    EXPECT_EQ(r.str(), "payload");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
    std::remove(path.c_str());
}

TEST(CkptFormatTest, ZeroExpectedFingerprintSkipsTheCheck)
{
    const std::string path = writeValid("anyfp", 0x1234);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(ckpt::readFile(path, 0, h, payload), "");
    EXPECT_EQ(h.fingerprint, 0x1234u);
    std::remove(path.c_str());
}

TEST(CkptFormatTest, MissingFileIsDiagnosed)
{
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err =
        ckpt::readFile(tempPath("does_not_exist"), 0, h, payload);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("does_not_exist"), std::string::npos) << err;
    EXPECT_TRUE(payload.empty());
}

TEST(CkptFormatTest, WrongMagicIsDiagnosed)
{
    const std::string path = writeValid("magic");
    std::vector<char> bytes = slurp(path);
    bytes[0] = 'X';
    dump(path, bytes);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err = ckpt::readFile(path, 0, h, payload);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    EXPECT_TRUE(payload.empty());
    std::remove(path.c_str());
}

TEST(CkptFormatTest, StaleVersionIsDiagnosed)
{
    const std::string path = writeValid("version");
    std::vector<char> bytes = slurp(path);
    // version is the u32 right after the 8-byte magic.
    bytes[8] = static_cast<char>(ckpt::kFormatVersion + 1);
    dump(path, bytes);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err = ckpt::readFile(path, 0, h, payload);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    EXPECT_TRUE(payload.empty());
    std::remove(path.c_str());
}

TEST(CkptFormatTest, ShardedImageIsRejectedByName)
{
    // The engine byte follows magic(8), version(4), fingerprint(8) and
    // resumeCycle(8). The writer always emits 0; 1 marked an image of
    // the removed sharded engine.
    const std::string path = writeValid("sharded");
    std::vector<char> bytes = slurp(path);
    ASSERT_EQ(bytes[28], 0);
    bytes[28] = 1;
    dump(path, bytes);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    std::string err = ckpt::readFile(path, 0, h, payload);
    EXPECT_NE(err.find("checkpoint " + path +
                       ": image was captured by the removed sharded engine"),
              std::string::npos)
        << err;
    EXPECT_TRUE(payload.empty());

    bytes[28] = 2;
    dump(path, bytes);
    err = ckpt::readFile(path, 0, h, payload);
    EXPECT_NE(err.find("engine mode"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(CkptFormatTest, FingerprintMismatchIsDiagnosed)
{
    const std::string path = writeValid("fp", 0x1111);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err = ckpt::readFile(path, 0x2222, h, payload);
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
    EXPECT_TRUE(payload.empty());
    std::remove(path.c_str());
}

TEST(CkptFormatTest, TruncationIsDiagnosedEverywhere)
{
    const std::string path = writeValid("trunc");
    const std::vector<char> whole = slurp(path);
    // Every proper prefix must fail cleanly: header cuts, payload cuts.
    for (std::size_t keep = 0; keep < whole.size(); ++keep) {
        dump(path, std::vector<char>(whole.begin(),
                                     whole.begin() + keep));
        ckpt::Header h;
        std::vector<std::uint8_t> payload;
        const std::string err = ckpt::readFile(path, 0, h, payload);
        EXPECT_NE(err, "") << "prefix of " << keep
                           << " bytes was accepted";
        EXPECT_TRUE(payload.empty());
    }
    std::remove(path.c_str());
}

TEST(CkptFormatTest, TrailingGarbageIsDiagnosed)
{
    const std::string path = writeValid("trailing");
    std::vector<char> bytes = slurp(path);
    bytes.push_back('\0');
    dump(path, bytes);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err = ckpt::readFile(path, 0, h, payload);
    EXPECT_NE(err, "") << "trailing byte was accepted";
    std::remove(path.c_str());
}

TEST(CkptFormatTest, ReaderLatchesFirstError)
{
    ckpt::Writer w;
    w.u32(7);
    ckpt::Reader r(w.buffer());
    r.section(0xAAAA, "alpha");  // wrong tag -> latches
    EXPECT_FALSE(r.ok());
    const std::string first = r.error();
    EXPECT_NE(first.find("alpha"), std::string::npos);
    // Subsequent reads return zero and keep the first message.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.error(), first);
}

TEST(CkptFormatTest, ImplausibleCountIsRejected)
{
    ckpt::Writer w;
    w.u64(1u << 30);
    ckpt::Reader r(w.buffer());
    EXPECT_EQ(r.count(1024, "widget count"), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("widget count"), std::string::npos);
}

/** A restore from @p path, as `mosaic_sim --restore` runs it. */
void
restoreFrom(const std::string &path)
{
    runSimulation(scaledWorkload(homogeneousWorkload("SCP", 1), 0.05),
                  SimConfig::mosaicDefault().withRestoreFrom(path));
}

TEST(CkptRestoreDeathTest, MissingImageExitsWithDiagnostic)
{
    const std::string path = tempPath("restore_missing");
    EXPECT_EXIT(restoreFrom(path), testing::ExitedWithCode(1),
                "checkpoint .*restore_missing.*cannot open");
}

TEST(CkptRestoreDeathTest, TruncatedImageExitsWithDiagnostic)
{
    const std::string path = writeValid("restore_trunc");
    const std::vector<char> whole = slurp(path);
    // Cut inside the header, so truncation is the first check to fail.
    dump(path, std::vector<char>(whole.begin(), whole.begin() + 20));
    EXPECT_EXIT(restoreFrom(path), testing::ExitedWithCode(1),
                "checkpoint .*restore_trunc.*truncated");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mosaic
