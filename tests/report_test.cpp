/** @file Tests for table formatting and result reporting helpers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "runner/json_report.h"
#include "runner/report.h"
#include "runner/simulation.h"
#include "workload/apps.h"

namespace mosaic {
namespace {

/**
 * Tiny recursive-descent JSON syntax checker: enough grammar to verify
 * that every byte of a report parses as one well-formed JSON value.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        i_ = 0;
        if (!value())
            return false;
        ws();
        return i_ == s_.size();
    }

  private:
    void
    ws()
    {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                                  s_[i_] == '\n' || s_[i_] == '\r'))
            ++i_;
    }

    bool eat(char c)
    {
        ws();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (i_ < s_.size() && s_[i_] != '"') {
            const auto c = static_cast<unsigned char>(s_[i_]);
            if (c < 0x20)
                return false;  // raw control character: invalid JSON
            if (s_[i_] == '\\') {
                ++i_;
                if (i_ >= s_.size())
                    return false;
                const char e = s_[i_];
                if (e == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        ++i_;
                        if (i_ >= s_.size() || !std::isxdigit(
                                static_cast<unsigned char>(s_[i_])))
                            return false;
                    }
                } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                           e != 'f' && e != 'n' && e != 'r' && e != 't') {
                    return false;
                }
            }
            ++i_;
        }
        return i_ < s_.size() && s_[i_++] == '"';
    }

    bool
    number()
    {
        const std::size_t start = i_;
        if (i_ < s_.size() && s_[i_] == '-')
            ++i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                s_[i_] == '+' || s_[i_] == '-'))
            ++i_;
        return i_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(i_, n, word) != 0)
            return false;
        i_ += n;
        return true;
    }

    bool
    value()
    {
        ws();
        if (i_ >= s_.size())
            return false;
        const char c = s_[i_];
        if (c == '{') {
            ++i_;
            ws();
            if (eat('}'))
                return true;
            do {
                ws();
                if (!string() || !eat(':') || !value())
                    return false;
            } while (eat(','));
            return eat('}');
        }
        if (c == '[') {
            ++i_;
            ws();
            if (eat(']'))
                return true;
            do {
                if (!value())
                    return false;
            } while (eat(','));
            return eat(']');
        }
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

/** One small, fast, seeded simulation shared by the round-trip tests. */
const SimResult &
miniSimResult()
{
    static const SimResult result = [] {
        Workload w = scaledWorkload(homogeneousWorkload("HISTO", 2), 0.08);
        for (AppParams &a : w.apps)
            a.instrPerWarp = 300;
        SimConfig cfg = SimConfig::mosaicDefault().withIoCompression(16.0);
        cfg.gpu.sm.warpsPerSm = 8;
        cfg.seed = 7;
        return runSimulation(w, cfg);
    }();
    return result;
}

/** Captures a TextTable's print output through a temp file. */
std::string
printed(const TextTable &t)
{
    std::FILE *f = std::tmpfile();
    t.print(f);
    std::fseek(f, 0, SEEK_SET);
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), f) != nullptr)
        out += buf;
    std::fclose(f);
    return out;
}

TEST(TextTableTest, ColumnsAlignAcrossRows)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer-name", "22"});
    const std::string out = printed(t);
    // Every line starts its second column at the same offset.
    const auto header_pos = out.find("value");
    const auto row1_pos = out.find('1', out.find("a\n") != std::string::npos
                                            ? out.find("a\n")
                                            : 0);
    ASSERT_NE(header_pos, std::string::npos);
    (void)row1_pos;
    // The separator line is as wide as the widest row.
    const auto sep_start = out.find("----");
    ASSERT_NE(sep_start, std::string::npos);
}

TEST(TextTableTest, HandlesRaggedRows)
{
    TextTable t;
    t.header({"a"});
    t.row({"1", "2", "3"});
    const std::string out = printed(t);
    EXPECT_NE(out.find('3'), std::string::npos);
}

TEST(TextTableTest, EmptyTablePrintsNothingButHeader)
{
    TextTable t;
    t.header({"only", "header"});
    const std::string out = printed(t);
    EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TextTableTest, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 0), "3");
    EXPECT_EQ(TextTable::num(3.14159, 4), "3.1416");
    EXPECT_EQ(TextTable::pct(0.123456, 2), "12.35%");
    EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
}

TEST(JsonCheckerTest, AcceptsAndRejects)
{
    EXPECT_TRUE(JsonChecker("{}").valid());
    EXPECT_TRUE(JsonChecker("{\"a\":[1,-2.5e3,\"s\",true,null]}").valid());
    EXPECT_TRUE(JsonChecker("{\"t\":\"a\\tb\\u001f\"}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":1,}").valid());
    EXPECT_FALSE(JsonChecker("{} trailing").valid());
    EXPECT_FALSE(JsonChecker(std::string("{\"a\tb\":1}")).valid());
}

TEST(JsonReportTest, EscapesControlCharactersInStrings)
{
    // Pre-refactor each serializer escaped only quotes and backslashes;
    // a workload name with a tab produced unparseable JSON.
    EXPECT_EQ(detail::jsonEscape("a\tb\x01"), "a\\tb\\u0001");
    SimResult r;
    r.workloadName = "tab\there";
    r.configLabel = "quote\"and\\slash";
    EXPECT_TRUE(JsonChecker(toJson(r)).valid());
}

TEST(JsonReportTest, SimResultJsonParses)
{
    const std::string json = toJson(miniSimResult());
    EXPECT_TRUE(JsonChecker(json).valid());
    // The registry section rides along inside the legacy document.
    EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
    EXPECT_NE(json.find("\"vm.walker.walks\":"), std::string::npos);
}

TEST(JsonReportTest, MetricsJsonParsesAndNamesManager)
{
    const std::string json = metricsToJson(miniSimResult(), "Mosaic");
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("\"manager\":\"Mosaic\""), std::string::npos);
    EXPECT_NE(json.find("\"samples\":["), std::string::npos);
}

TEST(JsonReportTest, SnapshotCoversRunAndEveryApp)
{
    const SimResult &r = miniSimResult();
    const MetricsSnapshot &m = r.metrics;
    EXPECT_EQ(m.atCycle, r.totalCycles);
    EXPECT_EQ(m.u64("sim.cycles"), r.totalCycles);
    // Per-app labeled families cover every app in the workload.
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
        const std::string key = "vm.translation.app.requests{app=" +
                                std::to_string(i) + "}";
        EXPECT_TRUE(m.has(key)) << key;
    }
}

/** A snapshot of integer counters, sorted by key as snapshots are. */
MetricsSnapshot
snapshotOf(const std::vector<std::pair<std::string, std::uint64_t>> &counters)
{
    MetricsSnapshot m;
    for (const auto &[path, v] : counters)
        m.values.push_back({path, {}, true, v, 0.0});
    std::sort(m.values.begin(), m.values.end(),
              [](const MetricValue &a, const MetricValue &b) {
                  return a.key() < b.key();
              });
    return m;
}

TEST(HitRateTest, L1TlbHitRateIsHitsPerRequest)
{
    const MetricsSnapshot m = snapshotOf(
        {{"vm.translation.requests", 200}, {"vm.translation.l1Hits", 150}});
    EXPECT_DOUBLE_EQ(l1TlbHitRate(m), 0.75);
}

TEST(HitRateTest, L2TlbHitRateIsHitsPerLookupNotPerArrayProbe)
{
    // 40 L2 lookups: 30 hit, 10 issue a walk. Each probed both the
    // large and the base array, so the arrays saw 80 probes; the rate
    // divides by lookups.
    const MetricsSnapshot m = snapshotOf({
        {"vm.translation.l2Hits", 30},
        {"vm.translation.walksIssued", 10},
        {"vm.tlb.l2.base.accesses", 40},
        {"vm.tlb.l2.base.hits", 30},
        {"vm.tlb.l2.large.accesses", 40},
        {"vm.tlb.l2.large.hits", 0},
    });
    EXPECT_DOUBLE_EQ(l2TlbHitRate(m), 0.75);
}

TEST(HitRateTest, CacheHitRatesAreHitsPerAccess)
{
    const MetricsSnapshot m = snapshotOf({
        {"cache.l1.accesses", 100},
        {"cache.l1.hits", 40},
        {"cache.l2.accesses", 60},
        {"cache.l2.hits", 15},
    });
    EXPECT_DOUBLE_EQ(l1CacheHitRate(m), 0.4);
    EXPECT_DOUBLE_EQ(l2CacheHitRate(m), 0.25);
}

TEST(HitRateTest, RatesAreZeroWithoutLookups)
{
    const MetricsSnapshot empty;
    EXPECT_EQ(l1TlbHitRate(empty), 0.0);
    EXPECT_EQ(l2TlbHitRate(empty), 0.0);
    EXPECT_EQ(l1CacheHitRate(empty), 0.0);
    EXPECT_EQ(l2CacheHitRate(empty), 0.0);
}

/**
 * GPU-MMU probes the large and the base L2 TLB array on every lookup,
 * so a rate over array probes would read half the per-lookup rate the
 * report must carry.
 */
TEST(JsonReportTest, GpuMmuL2TlbHitRateIsPerLookup)
{
    Workload w = scaledWorkload(heterogeneousWorkload(2, 5), 0.05);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 200;
    SimConfig cfg = SimConfig::baseline().withIoCompression(16.0);
    cfg.gpu.sm.warpsPerSm = 8;
    const SimResult r = runSimulation(w, cfg);
    const MetricsSnapshot &m = r.metrics;

    const std::uint64_t hits = m.u64("vm.translation.l2Hits");
    const std::uint64_t lookups = hits + m.u64("vm.translation.walksIssued");
    ASSERT_GT(hits, 0u);
    EXPECT_EQ(m.u64("vm.tlb.l2.base.accesses") +
                  m.u64("vm.tlb.l2.large.accesses"),
              2 * lookups);

    JsonWriter want;
    want.beginObject();
    want.field("l2TlbHitRate", double(hits) / double(lookups));
    want.endObject();
    const std::string field = want.str().substr(1, want.str().size() - 2);
    EXPECT_NE(toJson(r).find(field), std::string::npos) << field;
}

TEST(JsonReportTest, IntervalSamplingIsObservationOnly)
{
    Workload w = scaledWorkload(homogeneousWorkload("HISTO", 1), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 300;
    SimConfig cfg = SimConfig::mosaicDefault().withIoCompression(16.0);
    cfg.gpu.sm.warpsPerSm = 8;
    cfg.seed = 11;

    const SimResult plain = runSimulation(w, cfg);
    const SimResult sampled =
        runSimulation(w, cfg.withMetricsSampling(20000));

    // Sampling must not perturb the simulation...
    EXPECT_EQ(plain.totalCycles, sampled.totalCycles);
    EXPECT_EQ(toJson(plain), toJson(sampled));
    // ...and must actually record monotone interval snapshots.
    EXPECT_TRUE(plain.metricsSamples.empty());
    ASSERT_FALSE(sampled.metricsSamples.empty());
    Cycles prev = 0;
    for (const MetricsSnapshot &s : sampled.metricsSamples) {
        EXPECT_GE(s.atCycle, prev);
        prev = s.atCycle;
        EXPECT_LE(s.u64("vm.walker.walks"),
                  sampled.metrics.u64("vm.walker.walks"));
        // The hit-rate functions read interval samples too.
        for (const double rate : {l1TlbHitRate(s), l2TlbHitRate(s),
                                  l1CacheHitRate(s), l2CacheHitRate(s)}) {
            EXPECT_GE(rate, 0.0);
            EXPECT_LE(rate, 1.0);
        }
    }
}

TEST(JsonReportTest, ManagerKindNames)
{
    EXPECT_STREQ(managerKindName(ManagerKind::Mosaic), "Mosaic");
    EXPECT_STREQ(managerKindName(ManagerKind::LargeOnly), "2MB-only");
    EXPECT_STREQ(managerKindName(ManagerKind::GpuMmu), "GPU-MMU");
}

}  // namespace
}  // namespace mosaic
