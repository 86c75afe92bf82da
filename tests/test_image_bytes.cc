/**
 * @file
 * Same image bytes out, pinned. Each test records the FNV-1a digest of
 * one image the simulator writes and reads back: a checkpoint cut
 * mid-run from a uniprocessor and a 4P run over host-independent hand
 * traces (tests/hand_trace.hh), a two-entry sweep journal and a trace
 * file of a hand trace. The round-trip tests prove that what a walk
 * writes it reads back; these prove that it writes what it wrote
 * before. A change that moves one of them has changed a file format,
 * which bumps that kind's layout number, or, for a checkpoint, the
 * model's state at the cut, as a moved SameBytes pin shows; either
 * way it re-pins here.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/snapshot.hh"
#include "exp/journal.hh"
#include "hand_trace.hh"
#include "model/params.hh"
#include "run_util.hh"
#include "sim/system.hh"
#include "trace/trace_io.hh"

namespace s64v
{
namespace
{

constexpr std::uint64_t kSeed = 20031;

/** FNV-1a of the file at @p path, in hex; the file is removed. */
std::string
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes(std::istreambuf_iterator<char>(in), {});
    in.close();
    std::remove(path.c_str());
    EXPECT_FALSE(bytes.empty()) << path;
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(
                      ckpt::fnv1a(bytes.data(), bytes.size())));
    return buf;
}

/**
 * Digest of the checkpoint that a hand-traced run of @p base cuts at
 * cycle @p at, past the end of its warm-up, with loads, stores and
 * fetched instructions queued, so that the pin covers each queue's
 * walk.
 */
std::string
checkpointDigest(const SystemParams &base, std::size_t instrs, Cycle at)
{
    const std::string path = testutil::tempPath("pinned.ckpt");
    SystemParams sp = base;
    sp.warmupInstrs = instrs / 5;
    sp.checkpoint.atCycle = at;
    sp.checkpoint.path = path;
    sp.checkpoint.stopAfter = true;
    System sys(sp);
    for (CpuId cpu = 0; cpu < sp.numCpus; ++cpu)
        sys.attachTrace(cpu, testutil::handTrace(kSeed, instrs, cpu));
    const SimResult res = sys.run();
    EXPECT_TRUE(res.stoppedAtCheckpoint);
    EXPECT_GT(res.warmupEndCycle, 0u) << "cut before the warm-up ended";
    EXPECT_LT(res.instructions, instrs * sp.numCpus) << "cut after the end";
    std::size_t loads = 0, stores = 0, fetched = 0;
    for (CpuId cpu = 0; cpu < sp.numCpus; ++cpu) {
        loads += sys.core(cpu).lsq().lqSize();
        stores += sys.core(cpu).lsq().sqSize();
        fetched += sys.core(cpu).fetchUnit().queueSize();
    }
    EXPECT_GT(loads, 0u) << "no load queued at the cut";
    EXPECT_GT(stores, 0u) << "no store queued at the cut";
    EXPECT_GT(fetched, 0u) << "no fetched instruction at the cut";
    return fileDigest(path);
}

TEST(ImageBytes, UpCheckpoint)
{
    EXPECT_EQ(checkpointDigest(sparc64vBase(1).sys, 20000, 105000),
              "0xb6782d700d1a38d9");
}

TEST(ImageBytes, Smp4Checkpoint)
{
    EXPECT_EQ(checkpointDigest(sparc64vBase(4).sys, 5000, 50000),
              "0xc96cef942d79e118");
}

TEST(ImageBytes, TwoEntryJournal)
{
    std::vector<exp::JournalEntry> entries(2);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        exp::JournalEntry &e = entries[i];
        e.index = i;
        e.label = "point" + std::to_string(i);
        e.configHash = 0xfeedfacecafebeefull + i;
        e.workloadHash = 0x123456789abcdef0ull;
        e.sim.cycles = 123456 + i;
        e.sim.instructions = 240000;
        e.sim.measured = 200000;
        e.sim.ipc = 1.0 / 3.0;
        e.sim.stoppedAtCheckpoint = i == 1;
        e.sim.warmupEndCycle = 9999;
        CoreResult cr;
        cr.committed = 60000;
        cr.measured = 50000;
        cr.lastCommitCycle = 123400;
        cr.ipc = 0.1 + 0.2;
        e.sim.cores.assign(i + 1, cr);
        e.metrics["bus_util"] = 0.75;
        e.metrics["mispredict"] = 5e-324;
    }
    const std::string path = testutil::tempPath("pinned.journal");
    ASSERT_TRUE(exp::writeJournal(path, entries));
    EXPECT_EQ(fileDigest(path), "0x23352ba559d17671");
}

TEST(ImageBytes, HandTraceFile)
{
    const std::string path = testutil::tempPath("pinned.s64vtrc");
    writeTraceFile(path, testutil::handTrace(kSeed, 2000, 0));
    EXPECT_EQ(fileDigest(path), "0x15bca17a98f58cb4");
}

} // namespace
} // namespace s64v
