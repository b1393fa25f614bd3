// Tests for the SimMPI runtime: point-to-point semantics, every collective,
// communicator split, Cartesian topologies, failure propagation, the heap
// release after a run.
//
// Collectives are verified across a sweep of rank counts (powers of two and
// awkward odd sizes) via parameterized tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "comm/cart.h"
#include "comm/comm.h"
#include "comm/fault.h"
#include "comm/telemetry.h"
#include "obs/counters.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/rng.h"

namespace hacc::comm {
namespace {

TEST(Machine, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::vector<std::atomic<int>> seen(8);
  Machine::run(8, [&](Comm& c) {
    count.fetch_add(1);
    seen[static_cast<std::size_t>(c.rank())].fetch_add(1);
    EXPECT_EQ(c.size(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(Machine, SingleRankWorks) {
  Machine::run(1, [](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    c.barrier();
    EXPECT_EQ(c.allreduce_value(5, ReduceOp::kSum), 5);
  });
}

TEST(Machine, ZeroRanksRejected) {
  EXPECT_THROW(Machine::run(0, [](Comm&) {}), Error);
}

TEST(Machine, ReturnsTheRanksFreedHeapToTheOs) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "checks glibc's own allocator";
#else
  // This process's resident set in bytes (0 where /proc is absent).
  const auto resident_bytes = [] {
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0, resident = 0;
    if (!(statm >> pages >> resident)) return std::size_t{0};
    return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  };
  // Each rank fills 15 MiB of 96 KiB blocks (below glibc's mmap threshold,
  // so arena memory) with a small result behind each one, then frees the
  // blocks. The results outlive the run, so no freed block can coalesce
  // into the top of its heap, where glibc would release it unasked.
  constexpr int kRanks = 2;
  constexpr std::size_t kBlocks = 160, kBlockBytes = 96 << 10;
  std::vector<std::vector<std::unique_ptr<int>>> results(kRanks);
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  Machine::run(kRanks, [&](Comm& c) {
    auto& kept = results[static_cast<std::size_t>(c.rank())];
    kept.reserve(kBlocks);
    std::vector<std::unique_ptr<char[]>> blocks(kBlocks);
    for (std::size_t i = 0; i < kBlocks; ++i) {
      blocks[i] = std::make_unique<char[]>(kBlockBytes);  // zeroed: resident
      kept.push_back(std::make_unique<int>(static_cast<int>(i)));
    }
  });
  const std::size_t freed = kRanks * kBlocks * kBlockBytes;
  EXPECT_LT(resident_bytes(), before + freed / 4);
#endif
}

TEST(Machine, RankFailurePropagatesWithoutDeadlock) {
  EXPECT_THROW(Machine::run(4,
                            [](Comm& c) {
                              if (c.rank() == 2) throw Error("rank 2 died");
                              // Other ranks block on a message that will
                              // never come; abort must wake them.
                              if (c.rank() == 0)
                                (void)c.recv_bytes(1, /*tag=*/77);
                              c.barrier();
                            }),
               Error);
}

TEST(PointToPoint, TypedRoundTrip) {
  Machine::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<double> data{1.5, 2.5, 3.5};
      c.send(1, 7, std::span<const double>(data));
      auto back = c.recv_vector<int>(1, 8);
      ASSERT_EQ(back.size(), 2u);
      EXPECT_EQ(back[0], 10);
      EXPECT_EQ(back[1], 20);
    } else {
      auto got = c.recv_vector<double>(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[1], 2.5);
      const std::vector<int> reply{10, 20};
      c.send(0, 8, std::span<const int>(reply));
    }
  });
}

TEST(PointToPoint, NonOvertakingPerSourceAndTag) {
  Machine::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 50; ++i) c.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(c.recv_value<int>(0, 3), i);
    }
  });
}

TEST(PointToPoint, TagsSeparateStreams) {
  Machine::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, /*tag=*/1, 100);
      c.send_value(1, /*tag=*/2, 200);
    } else {
      // Receive in the opposite order of sending: tag matching must hold.
      EXPECT_EQ(c.recv_value<int>(0, 2), 200);
      EXPECT_EQ(c.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(PointToPoint, SelfSendWorks) {
  Machine::run(3, [](Comm& c) {
    c.send_value(c.rank(), 5, c.rank() * 11);
    EXPECT_EQ(c.recv_value<int>(c.rank(), 5), c.rank() * 11);
  });
}

TEST(PointToPoint, MovedPayloadRoundTrip) {
  // The rvalue send_bytes overload moves the payload into the mailbox
  // instead of copying; the receiver must see the identical bytes.
  Machine::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> payload(1024);
      for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::byte>(i * 7);
      c.send_bytes(1, 9, std::move(payload));
    } else {
      const auto got = c.recv_bytes(0, 9);
      ASSERT_EQ(got.size(), 1024u);
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], static_cast<std::byte>(i * 7));
    }
  });
}

TEST(PointToPoint, SizeMismatchThrows) {
  EXPECT_THROW(Machine::run(2,
                            [](Comm& c) {
                              if (c.rank() == 0) {
                                c.send_value<double>(1, 1, 3.0);
                              } else {
                                int wrong[3];
                                c.recv(0, 1, std::span<int>(wrong));
                              }
                            }),
               Error);
}

// ---- collectives over a sweep of communicator sizes ------------------------

class CollectiveTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST_P(CollectiveTest, Barrier) {
  const int p = GetParam();
  std::atomic<int> arrived{0};
  Machine::run(p, [&](Comm& c) {
    arrived.fetch_add(1);
    c.barrier();
    // After the barrier every rank must have arrived.
    EXPECT_EQ(arrived.load(), p);
    c.barrier();
    c.barrier();  // repeated barriers must not interfere
  });
}

TEST_P(CollectiveTest, BcastFromEveryRoot) {
  const int p = GetParam();
  Machine::run(p, [&](Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(5, c.rank() == root ? root * 100 : -1);
      c.bcast(std::span<int>(data), root);
      for (int v : data) EXPECT_EQ(v, root * 100);
    }
  });
}

TEST_P(CollectiveTest, ReduceSumToEveryRoot) {
  const int p = GetParam();
  const int expect = p * (p - 1) / 2;
  Machine::run(p, [&](Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<long long> v{c.rank(), 2LL * c.rank()};
      c.reduce(std::span<long long>(v), ReduceOp::kSum, root);
      if (c.rank() == root) {
        EXPECT_EQ(v[0], expect);
        EXPECT_EQ(v[1], 2LL * expect);
      }
      c.barrier();
    }
  });
}

TEST_P(CollectiveTest, AllreduceMinMaxSum) {
  const int p = GetParam();
  Machine::run(p, [&](Comm& c) {
    EXPECT_EQ(c.allreduce_value(c.rank(), ReduceOp::kSum), p * (p - 1) / 2);
    EXPECT_EQ(c.allreduce_value(c.rank(), ReduceOp::kMin), 0);
    EXPECT_EQ(c.allreduce_value(c.rank(), ReduceOp::kMax), p - 1);
    EXPECT_DOUBLE_EQ(c.allreduce_value(1.5, ReduceOp::kSum), 1.5 * p);
  });
}

TEST_P(CollectiveTest, GathervConcatenatesVariableContributions) {
  const int p = GetParam();
  Machine::run(p, [&](Comm& c) {
    // Rank r contributes r elements (rank 0 none): the fan-in used by the
    // gio aggregation layer.
    std::vector<int> mine;
    for (int i = 0; i < c.rank(); ++i) mine.push_back(c.rank() * 100 + i);
    std::vector<std::size_t> counts;
    const auto all = c.gatherv(std::span<const int>(mine), 0, &counts);
    if (c.rank() == 0) {
      ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
      std::size_t at = 0;
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(counts[static_cast<std::size_t>(r)],
                  static_cast<std::size_t>(r));
        for (int i = 0; i < r; ++i) EXPECT_EQ(all[at++], r * 100 + i);
      }
      EXPECT_EQ(all.size(), at);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveTest, Allgather) {
  const int p = GetParam();
  Machine::run(p, [&](Comm& c) {
    const std::vector<int> mine{c.rank() * 3, c.rank() * 3 + 1};
    std::vector<int> all(2 * static_cast<std::size_t>(p));
    c.allgather(std::span<const int>(mine), std::span<int>(all));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[2 * static_cast<std::size_t>(r)], r * 3);
      EXPECT_EQ(all[2 * static_cast<std::size_t>(r) + 1], r * 3 + 1);
    }
  });
}

TEST_P(CollectiveTest, AlltoallvTransposesContributions) {
  const int p = GetParam();
  Machine::run(p, [&](Comm& c) {
    // Rank r sends r+1 copies of value r*1000+dst to each destination dst.
    std::vector<int> send;
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    for (int dst = 0; dst < p; ++dst) {
      counts[static_cast<std::size_t>(dst)] =
          static_cast<std::size_t>(c.rank() + 1);
      for (int k = 0; k <= c.rank(); ++k)
        send.push_back(c.rank() * 1000 + dst);
    }
    std::vector<int> got;
    std::vector<std::size_t> rcounts;
    c.alltoallv_into(std::span<const int>(send),
                     std::span<const std::size_t>(counts), got, rcounts);
    ASSERT_EQ(rcounts.size(), static_cast<std::size_t>(p));
    std::size_t off = 0;
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(rcounts[static_cast<std::size_t>(src)],
                static_cast<std::size_t>(src + 1));
      for (std::size_t k = 0; k < rcounts[static_cast<std::size_t>(src)]; ++k)
        EXPECT_EQ(got[off + k], src * 1000 + c.rank());
      off += rcounts[static_cast<std::size_t>(src)];
    }
    EXPECT_EQ(off, got.size());
  });
}

TEST_P(CollectiveTest, AlltoallvIntoMatchesAndReusesBuffers) {
  const int p = GetParam();
  Machine::run(p, [&](Comm& c) {
    std::vector<double> send;
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    for (int dst = 0; dst < p; ++dst) {
      counts[static_cast<std::size_t>(dst)] =
          static_cast<std::size_t>(dst + 1);
      for (int k = 0; k <= dst; ++k)
        send.push_back(c.rank() * 100.0 + dst + 0.25 * k);
    }
    // Rank src sent us rank()+1 values src*100 + rank() + 0.25k.
    std::vector<double> expect;
    const std::vector<std::size_t> rcounts_ref(
        static_cast<std::size_t>(p), static_cast<std::size_t>(c.rank()) + 1);
    for (int src = 0; src < p; ++src)
      for (int k = 0; k <= c.rank(); ++k)
        expect.push_back(src * 100.0 + c.rank() + 0.25 * k);
    // The contents must match, and a second call must reuse the caller's
    // buffers without growing them.
    std::vector<double> recv;
    std::vector<std::size_t> rcounts;
    c.alltoallv_into(std::span<const double>(send),
                     std::span<const std::size_t>(counts), recv, rcounts);
    EXPECT_EQ(recv, expect);
    EXPECT_EQ(rcounts, rcounts_ref);
    const auto cap = recv.capacity();
    const auto* ptr = recv.data();
    c.alltoallv_into(std::span<const double>(send),
                     std::span<const std::size_t>(counts), recv, rcounts);
    EXPECT_EQ(recv, expect);
    EXPECT_EQ(recv.capacity(), cap);
    EXPECT_EQ(recv.data(), ptr);
  });
}

TEST_P(CollectiveTest, SplitByParity) {
  const int p = GetParam();
  Machine::run(p, [&](Comm& c) {
    Comm sub = c.split(c.rank() % 2, c.rank());
    ASSERT_TRUE(sub.valid());
    const int expected_size = p / 2 + ((c.rank() % 2 == 0) ? p % 2 : 0);
    EXPECT_EQ(sub.size(), expected_size);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    // The sub-communicator must be fully functional and isolated.
    const int sum = sub.allreduce_value(c.rank(), ReduceOp::kSum);
    int expect = 0;
    for (int r = c.rank() % 2; r < p; r += 2) expect += r;
    EXPECT_EQ(sum, expect);
    c.barrier();
  });
}

TEST(Split, NegativeColorExcluded) {
  Machine::run(4, [](Comm& c) {
    Comm sub = c.split(c.rank() == 0 ? -1 : 1, c.rank());
    if (c.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(Split, KeyControlsOrdering) {
  Machine::run(4, [](Comm& c) {
    // Reverse the rank order via the key.
    Comm sub = c.split(0, -c.rank());
    EXPECT_EQ(sub.rank(), c.size() - 1 - c.rank());
  });
}

TEST(Split, NestedSplitWorks) {
  Machine::run(8, [](Comm& c) {
    Comm half = c.split(c.rank() / 4, c.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    EXPECT_EQ(quarter.allreduce_value(1, ReduceOp::kSum), 2);
  });
}

// ---- Cartesian topology -----------------------------------------------------

TEST(DimsCreate, FactorizesBalanced) {
  EXPECT_EQ(dims_create(8, 3), (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(dims_create(12, 2), (std::vector<int>{4, 3}));
  EXPECT_EQ(dims_create(7, 2), (std::vector<int>{7, 1}));
  EXPECT_EQ(dims_create(1, 3), (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(dims_create(6, 1), (std::vector<int>{6}));
}

TEST(DimsCreate, ProductMatchesForManyCounts) {
  for (int n = 1; n <= 64; ++n) {
    for (int d = 1; d <= 3; ++d) {
      auto dims = dims_create(n, d);
      int prod = 1;
      for (int x : dims) prod *= x;
      EXPECT_EQ(prod, n) << "n=" << n << " d=" << d;
    }
  }
}

TEST(Cart3D, RoundTripAllRanks) {
  Cart3D topo({3, 2, 4});
  EXPECT_EQ(topo.size(), 24);
  for (int r = 0; r < topo.size(); ++r) {
    EXPECT_EQ(topo.rank_of(topo.coords(r)), r);
  }
}

TEST(Cart3D, PeriodicNeighbors) {
  Cart3D topo({2, 3, 4});
  // Wrap along each dimension.
  const int r = topo.rank_of({0, 0, 0});
  EXPECT_EQ(topo.coords(topo.neighbor(r, 0, -1))[0], 1);
  EXPECT_EQ(topo.coords(topo.neighbor(r, 1, -1))[1], 2);
  EXPECT_EQ(topo.coords(topo.neighbor(r, 2, 5))[2], 1);
}

TEST(Cart2D, BalancedMatchesDimsCreate) {
  auto topo = Cart2D::balanced(12);
  EXPECT_EQ(topo.dims()[0] * topo.dims()[1], 12);
  EXPECT_EQ(topo.dims()[0], 4);
  EXPECT_EQ(topo.dims()[1], 3);
}

// Paper Table II geometries are regular 3-D rank blocks; verify the topology
// machinery handles those exact shapes.
TEST(Cart3D, PaperGeometries) {
  const std::array<std::array<int, 3>, 3> geoms{
      {{16, 8, 16}, {64, 64, 32}, {192, 128, 64}}};
  const std::array<int, 3> cores{2048, 131072, 1572864};
  for (std::size_t i = 0; i < geoms.size(); ++i) {
    Cart3D topo(geoms[i]);
    EXPECT_EQ(topo.size(), cores[i]);
    // Interior rank round trip at scale.
    const int mid = topo.size() / 2;
    EXPECT_EQ(topo.rank_of(topo.coords(mid)), mid);
  }
}

// ---- telemetry: collective byte counters ------------------------------------
//
// The accounting contract (comm/telemetry.h): every payload that crosses the
// mailbox is counted under the innermost collective's op class, including
// zero-byte messages; the variable-size exchanges send one payload message
// per peer and no count round; self-addressed fast-path copies are NOT
// counted.

TEST(Telemetry, P2pByteCountersMatchPayloadsExactly) {
  Machine::run(2, [](Comm& c) {
    obs::Counters counters;
    obs::Binding binding(nullptr, &counters);
    const std::vector<double> payload(17, 1.0);
    if (c.rank() == 0) {
      c.send(1, 7, std::span<const double>(payload));
      c.send_value(1, 8, 42);
    } else {
      (void)c.recv_vector<double>(0, 7);
      (void)c.recv_value<int>(0, 8);
    }
    const auto& ids = telemetry::ids(telemetry::Op::kP2p);
    if (c.rank() == 0) {
      EXPECT_EQ(counters.value(ids.bytes_sent), 17 * sizeof(double) + sizeof(int));
      EXPECT_EQ(counters.value(ids.msgs_sent), 2u);
      EXPECT_EQ(counters.value(ids.bytes_recv), 0u);
    } else {
      EXPECT_EQ(counters.value(ids.bytes_recv), 17 * sizeof(double) + sizeof(int));
      EXPECT_EQ(counters.value(ids.msgs_recv), 2u);
      EXPECT_EQ(counters.value(ids.bytes_sent), 0u);
    }
  });
}

TEST(Telemetry, AlltoallvByteCountersMatchACraftedExchange) {
  // Rank r sends r+1 doubles to every OTHER rank (the self block bypasses
  // the mailbox and must not be counted). Expected per rank, P = 4:
  //   bytes sent     = 3 * (r+1) * sizeof(double)
  //   messages sent  = 3 payloads (no count round)
  //   bytes recv     = sum_{s != r} (s+1) * sizeof(double)
  Machine::run(4, [](Comm& c) {
    obs::Counters counters;
    obs::Binding binding(nullptr, &counters);
    const int p = c.size();
    const std::size_t mine = static_cast<std::size_t>(c.rank()) + 1;
    std::vector<std::size_t> send_counts(static_cast<std::size_t>(p), mine);
    std::vector<double> send(mine * static_cast<std::size_t>(p),
                             static_cast<double>(c.rank()));
    std::vector<double> recv;
    std::vector<std::size_t> recv_counts;
    c.alltoallv_into(std::span<const double>(send),
                     std::span<const std::size_t>(send_counts), recv,
                     recv_counts);
    EXPECT_EQ(recv.size(), 1u + 2u + 3u + 4u);

    const auto& ids = telemetry::ids(telemetry::Op::kAlltoall);
    std::uint64_t expect_recv = 0;
    for (int s = 0; s < p; ++s)
      if (s != c.rank())
        expect_recv += (static_cast<std::uint64_t>(s) + 1) * sizeof(double);
    EXPECT_EQ(counters.value(ids.bytes_sent), 3 * mine * sizeof(double));
    EXPECT_EQ(counters.value(ids.bytes_recv), expect_recv);
    EXPECT_EQ(counters.value(ids.msgs_sent), 3u);
    EXPECT_EQ(counters.value(ids.msgs_recv), 3u);
    EXPECT_EQ(counters.value(ids.calls), 1u);
    // Nothing leaked into the p2p class.
    EXPECT_EQ(counters.value(telemetry::ids(telemetry::Op::kP2p).bytes_sent),
              0u);
  });
}

TEST(Telemetry, ZeroCountBlocksStillCountAsMessages) {
  // All counts zero: every other rank still gets one empty payload, and
  // nothing else moves — (P-1) messages and 0 bytes in each direction.
  Machine::run(3, [](Comm& c) {
    obs::Counters counters;
    obs::Binding binding(nullptr, &counters);
    std::vector<std::size_t> send_counts(3, 0);
    std::vector<double> recv;
    std::vector<std::size_t> recv_counts;
    c.alltoallv_into(std::span<const double>(),
                     std::span<const std::size_t>(send_counts), recv,
                     recv_counts);
    EXPECT_TRUE(recv.empty());
    EXPECT_EQ(recv_counts, std::vector<std::size_t>(3, 0));
    const auto& ids = telemetry::ids(telemetry::Op::kAlltoall);
    EXPECT_EQ(counters.value(ids.bytes_sent), 0u);
    EXPECT_EQ(counters.value(ids.msgs_sent), 2u);  // 2 empty blocks
    EXPECT_EQ(counters.value(ids.bytes_recv), 0u);
    EXPECT_EQ(counters.value(ids.msgs_recv), 2u);
  });
}

TEST(Telemetry, BcastBytesSumToTreeTraffic) {
  // A binomial broadcast of B bytes over P ranks moves exactly (P-1)*B
  // payload bytes in total; verify by summing per-rank counters outside the
  // bindings.
  constexpr int kRanks = 8;
  constexpr std::size_t kElems = 25;
  std::array<std::uint64_t, kRanks> sent{}, msgs{};
  Machine::run(kRanks, [&](Comm& c) {
    obs::Counters counters;
    {
      obs::Binding binding(nullptr, &counters);
      std::vector<float> data(kElems, c.rank() == 2 ? 3.5f : 0.0f);
      c.bcast(std::span<float>(data), /*root=*/2);
      for (float v : data) EXPECT_EQ(v, 3.5f);
    }
    const auto& ids = telemetry::ids(telemetry::Op::kBcast);
    sent[static_cast<std::size_t>(c.rank())] = counters.value(ids.bytes_sent);
    msgs[static_cast<std::size_t>(c.rank())] = counters.value(ids.msgs_sent);
    EXPECT_EQ(counters.value(ids.calls), 1u);
  });
  std::uint64_t total_sent = 0, total_msgs = 0;
  for (int r = 0; r < kRanks; ++r) {
    total_sent += sent[static_cast<std::size_t>(r)];
    total_msgs += msgs[static_cast<std::size_t>(r)];
  }
  EXPECT_EQ(total_sent, (kRanks - 1) * kElems * sizeof(float));
  EXPECT_EQ(total_msgs, kRanks - 1);
}

TEST(Telemetry, UnboundRanksCountNothing) {
  Machine::run(2, [](Comm& c) {
    // No Binding: every counter hook must be a no-op, not a crash.
    c.barrier();
    c.allreduce_value(1.0, ReduceOp::kSum);
  });
}

// ---- sparse neighbor exchange ------------------------------------------------

TEST(NeighborAlltoallv, RingExchangeDeliversBlocksInListOrder) {
  // P = 4 ring, every rank's neighbor list is {left, self, right} (sorted,
  // symmetric). Rank r sends r+1 ints of value 100*r + slot to each
  // neighbor; blocks must come back in list order with matching counts.
  Machine::run(4, [](Comm& c) {
    const int p = c.size(), r = c.rank();
    std::vector<int> neighbors{(r + p - 1) % p, r, (r + 1) % p};
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
    const std::size_t mine = static_cast<std::size_t>(r) + 1;
    std::vector<std::size_t> send_counts(neighbors.size(), mine);
    std::vector<int> send;
    for (std::size_t s = 0; s < neighbors.size(); ++s)
      for (std::size_t k = 0; k < mine; ++k)
        send.push_back(100 * r + static_cast<int>(s));
    std::vector<int> recv;
    std::vector<std::size_t> recv_counts;
    c.neighbor_alltoallv(std::span<const int>(neighbors),
                         std::span<const int>(send),
                         std::span<const std::size_t>(send_counts), recv,
                         recv_counts);
    ASSERT_EQ(recv_counts.size(), neighbors.size());
    std::size_t off = 0;
    for (std::size_t s = 0; s < neighbors.size(); ++s) {
      const int src = neighbors[s];
      EXPECT_EQ(recv_counts[s], static_cast<std::size_t>(src) + 1);
      // The sender put our rank at *its* slot for us; recompute it.
      std::vector<int> their_nbrs{(src + p - 1) % p, src, (src + 1) % p};
      std::sort(their_nbrs.begin(), their_nbrs.end());
      their_nbrs.erase(
          std::unique(their_nbrs.begin(), their_nbrs.end()),
          their_nbrs.end());
      const auto it = std::find(their_nbrs.begin(), their_nbrs.end(), r);
      ASSERT_NE(it, their_nbrs.end());
      const int expect =
          100 * src + static_cast<int>(it - their_nbrs.begin());
      for (std::size_t k = 0; k < recv_counts[s]; ++k)
        EXPECT_EQ(recv[off + k], expect) << "from " << src;
      off += recv_counts[s];
    }
    EXPECT_EQ(off, recv.size());
  });
}

TEST(NeighborAlltoallv, SingleRankSelfBlockIsACopy) {
  Machine::run(1, [](Comm& c) {
    obs::Counters counters;
    obs::Binding binding(nullptr, &counters);
    const std::vector<int> neighbors{0};
    const std::vector<double> send{1.5, 2.5, 3.5};
    const std::vector<std::size_t> send_counts{3};
    std::vector<double> recv;
    std::vector<std::size_t> recv_counts;
    c.neighbor_alltoallv(std::span<const int>(neighbors),
                         std::span<const double>(send),
                         std::span<const std::size_t>(send_counts), recv,
                         recv_counts);
    EXPECT_EQ(recv, send);
    ASSERT_EQ(recv_counts.size(), 1u);
    EXPECT_EQ(recv_counts[0], 3u);
    // The self block bypasses the mailbox: a call, but no messages/bytes.
    const auto& ids = telemetry::ids(telemetry::Op::kNeighborAlltoall);
    EXPECT_EQ(counters.value(ids.calls), 1u);
    EXPECT_EQ(counters.value(ids.msgs_sent), 0u);
    EXPECT_EQ(counters.value(ids.bytes_sent), 0u);
  });
}

TEST(Telemetry, NeighborAlltoallvCountsPayloadOnlyNoControlRound) {
  // As in alltoallv_into there is NO count pre-exchange: element counts
  // are inferred from byte lengths. P = 3, full stencil incl. self; rank r
  // sends 2 floats to each of its 2 non-self neighbors.
  Machine::run(3, [](Comm& c) {
    obs::Counters counters;
    obs::Binding binding(nullptr, &counters);
    const std::vector<int> neighbors{0, 1, 2};
    std::vector<float> send(6, static_cast<float>(c.rank()));
    const std::vector<std::size_t> send_counts{2, 2, 2};
    std::vector<float> recv;
    std::vector<std::size_t> recv_counts;
    c.neighbor_alltoallv(std::span<const int>(neighbors),
                         std::span<const float>(send),
                         std::span<const std::size_t>(send_counts), recv,
                         recv_counts);
    EXPECT_EQ(recv.size(), 6u);
    const auto& ids = telemetry::ids(telemetry::Op::kNeighborAlltoall);
    EXPECT_EQ(counters.value(ids.bytes_sent), 2 * 2 * sizeof(float));
    EXPECT_EQ(counters.value(ids.msgs_sent), 2u);  // payloads only, no counts
    EXPECT_EQ(counters.value(ids.bytes_recv), 2 * 2 * sizeof(float));
    EXPECT_EQ(counters.value(ids.msgs_recv), 2u);
    EXPECT_EQ(counters.value(ids.calls), 1u);
    EXPECT_EQ(counters.value(telemetry::ids(telemetry::Op::kAlltoall).calls),
              0u);
  });
}

// ---- property: both variable-size exchange entries --------------------------
//
// alltoallv_into (every rank a peer) and neighbor_alltoallv (a random
// symmetric peer list) run one routine. Over 1-6 ranks, for a double and a
// 48-byte struct, random block sizes (zeros included) must arrive intact
// in peer order with their counts, and a reused receive buffer must stay
// put unless a call needs more room than it has.

/// A 48-byte element: the exchange moves any trivially copyable type.
struct Wide {
  std::uint64_t id;
  double value;
  std::int32_t tags[4];
  double weight;
  std::uint64_t check;
  bool operator==(const Wide&) const = default;
};
static_assert(sizeof(Wide) == 48);

/// Block size from `src` to `dst` in exchange `round`: a third of the
/// pairs send nothing; round 1 repeats round 0, round 2 sends about half
/// of it, round 3 more than three times as much.
std::size_t block_count(int src, int dst, int round) {
  const std::uint64_t h =
      splitmix64(0xC0FFEEULL ^ (static_cast<std::uint64_t>(src) << 8) ^
                 static_cast<std::uint64_t>(dst));
  const std::size_t base = h % 3 == 0 ? 0 : (h >> 8) % 40;
  if (round <= 1) return base;
  return round == 2 ? base / 2 : 3 * base + 1;
}

/// Whether ranks a and b list each other (symmetric; a == b is self).
bool linked(int a, int b) {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return splitmix64(0xBEEFULL ^ (lo << 8) ^ hi) % 2 == 0;
}

template <typename T>
T element(int src, int dst, int round, std::size_t k);
template <>
double element<double>(int src, int dst, int round, std::size_t k) {
  return src * 1e6 + dst * 1e4 + round * 1e3 + static_cast<double>(k);
}
template <>
Wide element<Wide>(int src, int dst, int round, std::size_t k) {
  const double v = element<double>(src, dst, round, k);
  return Wide{splitmix64(static_cast<std::uint64_t>(v)), v,
              {src, dst, round, static_cast<std::int32_t>(k)}, -v,
              ~static_cast<std::uint64_t>(k)};
}

template <typename T>
void check_exchange(const Comm& c, bool neighbor, std::size_t& zero_blocks) {
  const int me = c.rank();
  std::vector<int> peers;
  for (int q = 0; q < c.size(); ++q)
    if (!neighbor || linked(me, q)) peers.push_back(q);
  std::vector<T> recv;
  std::vector<std::size_t> recv_counts;
  const T* data = nullptr;
  std::size_t capacity = 0;
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<T> send;
    std::vector<std::size_t> send_counts;
    for (const int q : peers) {
      send_counts.push_back(block_count(me, q, round));
      for (std::size_t k = 0; k < send_counts.back(); ++k)
        send.push_back(element<T>(me, q, round, k));
    }
    if (neighbor)
      c.neighbor_alltoallv(std::span<const int>(peers),
                           std::span<const T>(send),
                           std::span<const std::size_t>(send_counts), recv,
                           recv_counts);
    else
      c.alltoallv_into(std::span<const T>(send),
                       std::span<const std::size_t>(send_counts), recv,
                       recv_counts);
    ASSERT_EQ(recv_counts.size(), peers.size());
    std::size_t at = 0;
    for (std::size_t s = 0; s < peers.size(); ++s) {
      const int src = peers[s];
      ASSERT_EQ(recv_counts[s], block_count(src, me, round)) << "from " << src;
      if (recv_counts[s] == 0) ++zero_blocks;
      for (std::size_t k = 0; k < recv_counts[s]; ++k)
        ASSERT_TRUE(recv[at + k] == element<T>(src, me, round, k))
            << "from " << src << " element " << k;
      at += recv_counts[s];
    }
    EXPECT_EQ(recv.size(), at);
    if (round == 1 || round == 2) {
      // The same or a smaller total lands in the buffer already there.
      EXPECT_EQ(recv.data(), data);
      EXPECT_EQ(recv.capacity(), capacity);
    }
    data = recv.data();
    capacity = recv.capacity();
  }
}

class ExchangeProperty : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(RankCounts, ExchangeProperty, ::testing::Range(1, 7));

TEST_P(ExchangeProperty, BothEntriesDeliverRandomBlocksAndReuseTheBuffer) {
  std::atomic<std::size_t> zero_blocks{0};
  Machine::run(GetParam(), [&](Comm& c) {
    std::size_t zeros = 0;
    for (const bool neighbor : {false, true}) {
      SCOPED_TRACE(neighbor ? "neighbor_alltoallv" : "alltoallv_into");
      check_exchange<double>(c, neighbor, zeros);
      check_exchange<Wide>(c, neighbor, zeros);
    }
    zero_blocks.fetch_add(zeros);
  });
  // The fixed hash leaves some pairs empty at every rank count above one,
  // so the property covers empty blocks.
  if (GetParam() > 1) {
    EXPECT_GT(zero_blocks.load(), 0u);
  }
}

// ---- fault injection -------------------------------------------------------

TEST(FaultInjection, KillAtStepFiresExactlyOnceAcrossRuns) {
  FaultPlan plan;
  plan.kill_at_step(1, 5);
  MachineOptions opts;
  opts.fault_plan = &plan;

  auto stepper = [](Comm& c) {
    for (int s = 1; s <= 6; ++s) {
      fault::set_step(s);
      c.barrier();
    }
  };
  try {
    Machine::run(4, stepper, opts);
    FAIL() << "expected the injected kill to abort the machine";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("step 5"), std::string::npos) << what;
  }
  // One-shot semantics: the same plan supervising a second run must not
  // re-kill (a node dies once; the restarted run replays step 5 cleanly).
  Machine::run(4, stepper, opts);
}

TEST(FaultInjection, DropSendIsOneShot) {
  FaultPlan plan;
  plan.drop_send(/*rank=*/0, /*tag=*/5);
  MachineOptions opts;
  opts.fault_plan = &plan;
  Machine::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 5, 111);  // dropped in transit
      c.send_value(1, 5, 222);  // arrives
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 5), 222);
    }
  }, opts);
}

TEST(FaultInjection, CorruptSendCaughtByPayloadVerification) {
  FaultPlan plan;
  plan.corrupt_send(/*rank=*/0, /*tag=*/9);
  MachineOptions opts;
  opts.fault_plan = &plan;
  opts.verify_payloads = true;
  try {
    Machine::run(2, [](Comm& c) {
      if (c.rank() == 0) {
        const std::array<double, 8> payload{1, 2, 3, 4, 5, 6, 7, 8};
        c.send(1, 9, std::span<const double>(payload));
      } else {
        (void)c.recv_vector<double>(0, 9);
      }
    }, opts);
    FAIL() << "expected the checksum mismatch to abort the machine";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("payload corruption"), std::string::npos) << what;
  }
}

TEST(FaultInjection, CorruptSendInvisibleWithoutVerification) {
  // The same fault without verify_payloads: the flipped byte sails through
  // (this is the silent-corruption scenario verification exists for).
  FaultPlan plan;
  plan.corrupt_send(/*rank=*/0, /*tag=*/9);
  MachineOptions opts;
  opts.fault_plan = &plan;
  Machine::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value<std::uint64_t>(1, 9, 0);
    } else {
      EXPECT_NE(c.recv_value<std::uint64_t>(0, 9), 0u);
    }
  }, opts);
}

TEST(FaultInjection, StallRecvDelaysCompletion) {
  FaultPlan plan;
  plan.stall_recv(/*rank=*/1, /*seconds=*/0.1);
  MachineOptions opts;
  opts.fault_plan = &plan;
  const auto t0 = std::chrono::steady_clock::now();
  Machine::run(2, [](Comm& c) {
    if (c.rank() == 0) c.send_value(1, 3, 7);
    if (c.rank() == 1) {
      EXPECT_EQ(c.recv_value<int>(0, 3), 7);
    }
  }, opts);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 0.1);
}

TEST(FaultInjection, FailCollectiveNamesOpAndRank) {
  FaultPlan plan;
  plan.fail_collective(/*rank=*/2, telemetry::Op::kBcast);
  MachineOptions opts;
  opts.fault_plan = &plan;
  try {
    Machine::run(4, [](Comm& c) {
      (void)c.bcast_value(42, 0);
      c.barrier();
    }, opts);
    FAIL() << "expected the injected collective failure to abort";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bcast"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
  }
}

TEST(FaultInjection, HooksAreNoOpsWithoutPlan) {
  Machine::run(2, [](Comm& c) {
    EXPECT_FALSE(fault::active());
    fault::set_step(3);  // must not throw
    EXPECT_EQ(fault::current_step(), 3);
    c.barrier();
  });
}

TEST(FaultInjection, SharedPlanOneShotFiresOnceAcrossConcurrentMachines) {
  // A campaign may drive several machines at once against one plan; the
  // single atomic fetch_add that claims a firing must hand a one-shot kill
  // to exactly one of them — never both, never neither.
  for (int round = 0; round < 8; ++round) {
    FaultPlan plan;
    plan.kill_at_step(/*rank=*/0, /*step=*/2);
    MachineOptions opts;
    opts.fault_plan = &plan;
    std::atomic<int> killed{0};
    auto machine = [&] {
      try {
        Machine::run(1, [](Comm& c) {
          fault::set_step(2);
          c.barrier();
        }, opts);
      } catch (const std::exception&) {
        killed.fetch_add(1);
      }
    };
    std::thread a(machine);
    std::thread b(machine);
    a.join();
    b.join();
    EXPECT_EQ(killed.load(), 1) << "round " << round;
  }
}

TEST(FaultInjection, CloneFreshCarriesScheduleWithFiringStateReset) {
  FaultPlan plan;
  plan.kill_at_step(/*rank=*/0, /*step=*/3);
  MachineOptions opts;
  opts.fault_plan = &plan;
  auto stepper = [](Comm& c) {
    for (int s = 1; s <= 4; ++s) {
      fault::set_step(s);
      c.barrier();
    }
  };
  EXPECT_THROW(Machine::run(2, stepper, opts), std::exception);
  // The original is spent (one-shot consumed)...
  Machine::run(2, stepper, opts);
  // ...but a fresh clone carries the whole schedule again, and fires
  // independently of the original's counters.
  FaultPlan clone = plan.clone_fresh();
  MachineOptions copts;
  copts.fault_plan = &clone;
  EXPECT_THROW(Machine::run(2, stepper, copts), std::exception);
  Machine::run(2, stepper, copts);
}

// ---- deadlock / failure detection ------------------------------------------

TEST(Detection, CraftedDeadlockProducesStuckRankReport) {
  // Both ranks receive first (classic head-to-head deadlock) on distinct
  // tags. The deadline must expire and the report must name BOTH ranks and
  // both pending tags — this is the acceptance test for the stuck-rank
  // diagnosis.
  MachineOptions opts;
  opts.recv_timeout_s = 0.25;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    Machine::run(2, [](Comm& c) {
      if (c.rank() == 0) {
        (void)c.recv_bytes(1, /*tag=*/11);
        c.send_value(1, 22, 1);
      } else {
        (void)c.recv_bytes(0, /*tag=*/22);
        c.send_value(0, 11, 1);
      }
    }, opts);
    FAIL() << "expected the deadlock to be detected";
  } catch (const DeadlockError& e) {
    const std::string report = e.what();
    EXPECT_NE(report.find("stuck-rank report"), std::string::npos) << report;
    EXPECT_NE(report.find("rank 0"), std::string::npos) << report;
    EXPECT_NE(report.find("rank 1"), std::string::npos) << report;
    EXPECT_NE(report.find("tag=11"), std::string::npos) << report;
    EXPECT_NE(report.find("tag=22"), std::string::npos) << report;
  }
  // Detected within the deadline (plus slack), not after a hang.
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(Detection, TimeoutDoesNotFireOnHealthyTraffic) {
  MachineOptions opts;
  opts.recv_timeout_s = 5.0;
  opts.verify_payloads = true;
  Machine::run(4, [](Comm& c) {
    // Checksummed collectives under a deadline: everything must pass.
    EXPECT_EQ(c.allreduce_value(c.rank() + 1, ReduceOp::kSum), 10);
    c.barrier();
    EXPECT_EQ(c.bcast_value(c.rank() == 2 ? 99 : 0, 2), 99);
  }, opts);
}

TEST(Detection, AbortCarriesFailingRankCauseToPeers) {
  // A rank failure must surface on *other* ranks as an Aborted carrying the
  // failing rank's diagnosis, not a generic shutdown.
  std::string cause_seen_by_rank0;
  try {
    Machine::run(4, [&](Comm& c) {
      if (c.rank() == 2) throw Error("boom: simulated defect");
      if (c.rank() == 0) {
        try {
          (void)c.recv_bytes(1, /*tag=*/77);
        } catch (const Aborted& a) {
          cause_seen_by_rank0 = a.what();
          throw;
        }
      }
      c.barrier();
    });
    FAIL() << "expected the machine to abort";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  EXPECT_NE(cause_seen_by_rank0.find("rank 2 failed"), std::string::npos)
      << cause_seen_by_rank0;
  EXPECT_NE(cause_seen_by_rank0.find("boom"), std::string::npos)
      << cause_seen_by_rank0;
}

}  // namespace
}  // namespace hacc::comm
