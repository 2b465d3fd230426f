// Runs the built trace_inspect over the small checked-in streams in
// tests/tools/fixtures (one per record family, plus a damaged stream) and
// pins every count and value it prints, then drives it over a seeded
// mutation corpus of the same lines.
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "jsonl.h"

namespace {

namespace fs = std::filesystem;

struct Output {
  int status = -1;  // exit code, or -1 when the process did not exit
  std::string out;  // stdout + stderr
};

Output Inspect(const std::string& file, const std::string& flags = "") {
  const std::string cmd = std::string("'") + TRACE_INSPECT_BIN + "' '" +
                          file + "' " + flags + " 2>&1";
  Output run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.out.append(buf.data(), n);
  }
  const int wait_status = pclose(pipe);
  if (WIFEXITED(wait_status)) run.status = WEXITSTATUS(wait_status);
  return run;
}

std::string Fixture(const std::string& name) {
  return std::string(TOOLS_FIXTURE_DIR) + "/" + name;
}

void ExpectLines(const Output& run, std::initializer_list<const char*> wanted) {
  EXPECT_EQ(run.status, 0) << run.out;
  for (const char* w : wanted) {
    EXPECT_NE(run.out.find(w), std::string::npos)
        << "missing: " << w << "\n--- output ---\n"
        << run.out;
  }
}

void ExpectAbsent(const Output& run, std::initializer_list<const char*> banned) {
  for (const char* b : banned) {
    EXPECT_EQ(run.out.find(b), std::string::npos)
        << "unexpected: " << b << "\n--- output ---\n"
        << run.out;
  }
}

TEST(TraceInspectCli, HelpMissingFileAndUnknownFlag) {
  EXPECT_EQ(Inspect("--help").status, 0);
  const Output missing = Inspect(Fixture("no_such_stream.jsonl"));
  EXPECT_EQ(missing.status, 1);
  EXPECT_NE(missing.out.find("cannot open"), std::string::npos);
  EXPECT_EQ(Inspect(Fixture("svc.jsonl"), "--no-such-flag").status, 1);
}

TEST(TraceInspectFixtures, Telemetry) {
  const Output run = Inspect(Fixture("telemetry.jsonl"), "--audit --events=3");
  ExpectLines(
      run,
      {"lines=17 records=17 empty=0 unparseable=0 unknown=0",
       "emitted=40 dropped=12 audit_records=6",
       "parsed: 7 events, 6 audit records, 2 metrics\n",
       "tracer ring: capacity=28 retained=28 emitted=40 dropped=12 (30.0% of "
       "emitted events lost)",
       "dropped by layer: sim.bus=9 vm=3",
       "  detect                2          400          900",
       "  fault                 3          150          170",
       "  sim.bus               2          100          140",
       "  detect/alarm_cleared                              1",
       "  detect/alarm_raised                               1",
       "  fault/counter_reset                               1",
       "  fault/sample_dropped                              2",
       "  sim.bus/lock_window_open                          2",
       "  Mitigation/actuation            1          0        0            -",
       "  Mitigation/mitigation           1          0        0            -",
       "  SDS/boundary                    3          2        1       1.8400",
       "  SDS/degrade                     1          0        1            -",
       "  counter_reset                                     1",
       "  sample_dropped                                    2",
       "  SDS/hold-last                                     1",
       "  retry                                             1",
       "t=     440 (   4.40s)  mitigation applied: policy=quarantine",
       "t=     400 (   4.00s)  alarm_raised   SDS owner=3",
       "t=     400 (   4.00s)  alarm_raised (audit) SDS",
       "t=     900 (   9.00s)  alarm_cleared  SDS",
       "t=     910 (   9.10s)  alarm_cleared (audit) SDS",
       "  sim.cache.cross_owner_evictions      812433",
       "count=10 sum=550 p50=58.3333 p95=95.8333 p99=99.1667"});
  // --events=3 dumps the first three events, --audit every audit record.
  const std::string dumped = run.out.substr(run.out.find("dumped lines"));
  std::size_t rows = 0;
  for (std::size_t at = 0; (at = dumped.find("\n  {", at)) != std::string::npos;
       ++at) {
    ++rows;
  }
  EXPECT_EQ(rows, 3u + 6u);

  const Output fault = Inspect(Fixture("telemetry.jsonl"), "--layer=fault");
  ExpectLines(fault, {"per-event counts (layer=fault)",
                      "  fault/sample_dropped                              2"});
  ExpectAbsent(fault, {"sim.bus/lock_window_open", "dumped lines"});
}

// Two traced ticks in perfbench's span format: tick = vm.run_tick +
// detect.on_tick, with a pcm.sample inside each detector call.
//   tick            1000 + 1200 = 2200 ns, self 0
//   vm.run_tick      700 +  800 = 1500 ns, 68.2% of tick
//   detect.on_tick   300 +  400 =  700 ns, self 700 - 300 = 400, 31.8%
//   pcm.sample       100 +  200 =  300 ns, 13.6%
TEST(TraceInspectFixtures, PerfbenchLedger) {
  const Output run = Inspect(Fixture("ledger.jsonl"));
  ExpectLines(
      run,
      {"lines=8 records=8 empty=0 unparseable=0 unknown=0",
       "perfbench ledger (8 spans)",
       "  tick                                          2             2200"
       "                0   100.0%\n"
       "    detect.on_tick                              2              700"
       "              400    31.8%\n"
       "      pcm.sample                                2              300"
       "              300    13.6%\n"
       "    vm.run_tick                                 2             1500"
       "             1500    68.2%\n"});
  ExpectAbsent(run, {"\ntelemetry\n"});
}

TEST(TraceInspectFixtures, RollupAndSlo) {
  const Output run = Inspect(Fixture("rollup.jsonl"), "--top=3 --alerts=2");
  ExpectLines(
      run,
      {"lines=14 records=14 empty=0 unparseable=0 unknown=0",
       "rollup accounting: shards=4 window_ticks=100 ingested=76800 rows=768 "
       "live_series=64",
       "drops: late=0 series=0 samples=0  memory=188.2 KiB",
       "detect.false_alarm    4     400      0.005    0.000    1.000    0.500  "
       "    0.500      0..1",
       "detect.latency_ticks  4     400      252.682  200.185  299.058  "
       "301.500    309.079    0..1",
       "top 2 tenants by worst p95(detect.latency_ticks):",
       "0     1       301.500    1          253.317  2",
       "0     0       286.184    0          252.047  2",
       "slo status (3 alert transitions):",
       "detect-latency      p95(detect.latency_ticks) <= 600  page   6.667   4 "
       "         13",
       "false-alarm-budget  max(detect.false_alarm) <= 0      page   46.154  "
       "12         13",
       "first 2 alert transitions:",
       "0       false-alarm-budget  page   50.000  1     2       1.000",
       "4       detect-latency      page   4.000   0     1       907.825"});
  ExpectAbsent(run, {"mitigation-convergence", "\ntelemetry\n"});

  const Output by_metric =
      Inspect(Fixture("rollup.jsonl"), "--metric=detect.false_alarm");
  ExpectLines(by_metric, {"top 2 tenants by worst p95(detect.false_alarm):",
                          "0     0       0.500      0          0.005  2",
                          "0     1       0.500      0          0.005  2"});
  ExpectAbsent(by_metric, {"first 2 alert transitions"});
  const Output unranked = Inspect(Fixture("rollup.jsonl"), "--metric=nope");
  ExpectLines(unranked, {"no rollup rows for metric \"nope\""});
}

TEST(TraceInspectFixtures, ServiceAccounting) {
  const Output run = Inspect(Fixture("svc.jsonl"), "--svc");
  ExpectLines(
      run,
      {"lines=4 records=4 empty=0 unparseable=0 unknown=0",
       "reference: events=3074 admitted=1009 coalesced=1420 shed=506 "
       "shed_rate=0.165",
       "wal_appends=3580 checkpoints=12 quarantines=3 alarms=1 decisions=2",
       "recovery: crash_points=3 fired=2 bit_identical=2/3 max_replayed=210 "
       "max_deduped=2499  ** PIN BROKEN **",
       "crash_mid_wal_append  1074  0.50   yes    112         yes   178       "
       "960      torn_frame  yes",
       "crash_mid_checkpoint  3     0.50   yes    119         yes   210       "
       "985      clean_end   yes",
       "crash_mid_wal_append  2864  0.50   NO     363         no    22        "
       "2499     none        NO"});
  const Output summary = Inspect(Fixture("svc.jsonl"));
  ExpectLines(summary, {"bit_identical=2/3"});
  ExpectAbsent(summary, {"torn_frame"});
}

TEST(TraceInspectFixtures, Forensics) {
  const Output run = Inspect(Fixture("forensics.jsonl"), "--forensics");
  ExpectLines(
      run,
      {"lines=4 records=4 empty=0 unparseable=0 unknown=0",
       "t=     600 (   6.00s)  unattributed  evidence t=89..600",
       "VM 2    score=0.155 evictions=1053 bus_delay=0 occupancy=15674",
       "VM 4    score=0.150 evictions=1013 bus_delay=0 occupancy=15257",
       "t=     600 (   6.00s)  prime suspect VM 2  evidence t=89..600\n",
       "VM 2    score=0.592 evictions=63 bus_delay=7066232 occupancy=4514432",
       "VM 5    score=0.063 evictions=1003 bus_delay=18382 occupancy=14843",
       "t=    1200 (  12.00s)  prime suspect VM 2  evidence t=689..1200  "
       "kstest=VM 2 (agrees)",
       "VM 2    score=0.986 evictions=118084 bus_delay=0 occupancy=4095615",
       "VM 8    score=0.002 evictions=101 bus_delay=0 occupancy=22451",
       "VM 3    score=0.002 evictions=42 bus_delay=0 occupancy=23043",
       "t=    2400 (  24.00s)  prime suspect VM 5  evidence t=1889..2400  "
       "kstest=VM 3 (DISAGREES)",
       "VM 5    score=0.481 evictions=9000 bus_delay=120 occupancy=300000",
       "VM 3    score=0.310 evictions=4000 bus_delay=95 occupancy=120000",
       "forensic convictions (4 reports, 1 unattributed):",
       "2   2          0.986        1             1",
       "5   1          0.481        1             0"});
  // Without --forensics: the incident lines and the conviction table, no
  // per-suspect rows.
  const Output summary = Inspect(Fixture("forensics.jsonl"));
  ExpectLines(summary, {"kstest=VM 3 (DISAGREES)",
                        "2   2          0.986        1             1"});
  ExpectAbsent(summary, {"score=0.155"});
}

TEST(TraceInspectFixtures, HostChaos) {
  const Output run = Inspect(Fixture("hostchaos.jsonl"), "--hostchaos");
  ExpectLines(
      run,
      {"lines=16 records=16 empty=0 unparseable=0 unknown=0",
       "host-chaos runs: 2 (warm=1 cold=1) host_transitions=6 host_downs=3",
       "  evacuations: 4  migrated=2  pending=1  throttled-in-place=1  "
       "mean_attempts=2.0 mean_ticks=20.0 over 3 finished",
       "run 0: app=kmeans hosts=3 handoff=warm attack_start=500 horizon=3000",
       "host timeline: 4 transitions  host0: 1 down  host2: 1 down",
       "t=     190 (   1.90s)  host 0  up -> down",
       "t=     600 (   6.00s)  host 0  down -> recovering",
       "t=     800 (   8.00s)  host 0  recovering -> up",
       "t=    2900 (  29.00s)  host 2  up -> dead",
       // The pending evacuation (finished = kInvalidTick) is excluded from
       // mean_ticks: (5 + 40) / 2.
       "    evacuations: 3  migrated=1  pending=1  throttled-in-place=1  "
       "mean_attempts=2.0 mean_ticks=22.5 over 2 finished",
       "t=     195 (   1.95s)  VM 1  host 0 -> 1  attempts=1  migrated",
       "t=     195 (   1.95s)  VM 2  host 0 -> 0  attempts=3  "
       "throttled-in-place",
       "t=    2950 (  29.50s)  VM 4  host 2 -> 0  attempts=2  pending",
       "handoffs: 2 (warm=2 cold=0)  blind-window: [censored]=1 [51-200]=1",
       "t=     200 (   2.00s)  VM 1  host 0 -> 1  evac warm ok  blind=120",
       "t=    2950 (  29.50s)  VM 5  host 2 -> 1  forced warm ok  blind=-1",
       "run 1: app=kmeans hosts=3 handoff=cold attack_start=500 horizon=3000",
       "host timeline: 2 transitions  host0: 1 down",
       "t=     800 (   8.00s)  host 0  down -> up",
       "    evacuations: 1  migrated=1  mean_attempts=2.0 mean_ticks=15.0 over "
       "1 finished",
       "t=     195 (   1.95s)  VM 1  host 0 -> 1  attempts=2  migrated",
       "handoffs: 2 (warm=0 cold=2)  blind-window: [201-800]=1 [>800]=1",
       "t=     210 (   2.10s)  VM 1  host 0 -> 1  evac cold cold_start  "
       "blind=600",
       "t=     900 (   9.00s)  VM 3  host 1 -> 2  forced cold cold_start  "
       "blind=900",
       "warm     1     2         120.0       120        1",
       "cold     1     2         750.0       900        0"});
  // Without --hostchaos: summaries and the warm-vs-cold table, no rows.
  const Output summary = Inspect(Fixture("hostchaos.jsonl"));
  ExpectLines(summary, {"mean_ticks=22.5 over 2 finished",
                        "cold     1     2         750.0       900        0"});
  ExpectAbsent(summary, {"up -> dead", "blind=900"});
}

TEST(TraceInspectFixtures, LintStats) {
  const Output run = Inspect(Fixture("lint_stats.json"), "--lint");
  ExpectLines(run, {"lines=1 records=1 empty=0 unparseable=0 unknown=0",
                    "lint analysis (schema_version=1)",
                    "scanned=412 files  functions=2874 call_edges=9120",
                    "taint: seeds=14 tainted_functions=37",
                    "findings: diagnostics=2 suppressions=9",
                    "  det-rand                                          1",
                    "  layer-dag                                         1"});
  ExpectAbsent(run, {"cache_hits", "baselined"});
  ExpectAbsent(Inspect(Fixture("lint_stats.json")), {"det-rand"});
}

// Empty and whitespace-only lines (including a bare CR), a CRLF record, two
// records glued onto one line, a truncated record, plain text, an unknown
// type and a record without a type. The glued line counts as unparseable
// (it is not silently read as its first record), so two events remain.
TEST(TraceInspectFixtures, GarbageAndEmptyLines) {
  const Output run = Inspect(Fixture("garbage.jsonl"), "--events=10");
  ExpectLines(run, {"lines=11 records=2 empty=3 unparseable=3 unknown=3",
                    "unknown record types: (missing)=1 future_record=2",
                    "parsed: 2 events, 0 audit records",
                    "  vm                    2            5            9",
                    "  vm/tick                                           2"});
  ExpectAbsent(run, {"\"tick\":6"});
}

// ---------------------------------------------------------------------------
// Seeded mutation pass: bit flips, truncations and splices of the fixture
// lines. Every mutated line must either parse or be rejected without a
// crash, and the inspector must account for every line of the corpus.
// ---------------------------------------------------------------------------

std::vector<std::string> FixtureLines() {
  std::vector<std::string> lines;
  for (const auto& entry : fs::directory_iterator(TOOLS_FIXTURE_DIR)) {
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());  // directory order is unspecified
  return lines;
}

std::string Mutate(const std::vector<std::string>& pool, sds::Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.UniformInt(std::uint64_t{n}));
  };
  std::string s = pool[pick(pool.size())];
  const std::size_t rounds = 1 + pick(3);
  for (std::size_t r = 0; r < rounds; ++r) {
    switch (pick(3)) {
      case 0:  // bit flip
        if (!s.empty()) {
          s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
        }
        break;
      case 1:  // truncate
        s.resize(pick(s.size() + 1));
        break;
      default: {  // splice: a prefix of this line + a suffix of another
        const std::string& other = pool[pick(pool.size())];
        s = s.substr(0, pick(s.size() + 1)) +
            other.substr(pick(other.size() + 1));
      }
    }
  }
  return s;
}

TEST(TraceInspectMutation, SeededMutationsAreParsedOrCounted) {
  constexpr int kIterations = 4000;
  const std::vector<std::string> pool = FixtureLines();
  ASSERT_GT(pool.size(), 50u);
  sds::Rng rng(20200707);
  std::vector<std::string> corpus;
  std::size_t parsed = 0, rejected = 0, blank = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string line = Mutate(pool, rng);
    // In-process: ParseLine either accepts or rejects, and every accessor
    // copes with whatever value text a damaged line leaves behind.
    sds::tools::JsonObject o;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      ++blank;
    } else if (sds::tools::ParseLine(line, o)) {
      ++parsed;
      for (const auto& [key, value] : o) {
        (void)sds::tools::NumOr(o, key, 0.0);
        (void)sds::tools::IntOr(o, key, 0);
        (void)sds::tools::ParseNumberArray(value);
        for (const auto& nested : sds::tools::ParseObjectArray(value)) {
          for (const auto& [k, v] : nested) {
            (void)sds::tools::IntOr(nested, k, 0);
          }
        }
        sds::tools::JsonObject inner;
        (void)sds::tools::ParseLine(value, inner);
      }
    } else {
      ++rejected;
    }
    corpus.push_back(std::move(line));
  }
  EXPECT_EQ(parsed + rejected + blank, static_cast<std::size_t>(kIterations));
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);

  // End to end: the inspector, with every section switched on, must exit
  // cleanly and account for each line of the corpus exactly once.
  const fs::path file = fs::path(::testing::TempDir()) / "mutated.jsonl";
  {
    std::ofstream out(file, std::ios::binary);
    for (const auto& line : corpus) out << line << '\n';
  }
  std::size_t lines = 0;
  {
    std::ifstream in(file, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) ++lines;
  }
  const Output run = Inspect(file.string(),
                          "--audit --events=50 --top=5 --alerts=5 --svc "
                          "--forensics --hostchaos --lint");
  ASSERT_EQ(run.status, 0) << run.out.substr(0, 2000);
  const auto at = run.out.find("  lines=");
  ASSERT_NE(at, std::string::npos);
  long long total = 0, records = 0, empty = 0, bad = 0, unknown = 0;
  ASSERT_EQ(std::sscanf(run.out.c_str() + at,
                        "  lines=%lld records=%lld empty=%lld "
                        "unparseable=%lld unknown=%lld",
                        &total, &records, &empty, &bad, &unknown),
            5);
  EXPECT_EQ(total, static_cast<long long>(lines));
  EXPECT_EQ(records + empty + bad + unknown, total);
  EXPECT_GT(records, 0);
  EXPECT_GT(bad, 0);
}

}  // namespace
