// The distributed (simulated-MPI) integrator's correctness contract: owned
// values are bitwise identical to a serial run on the global mesh, for any
// rank count — because every kernel gathers identical inputs in identical
// order. Plus message-fabric semantics.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "comm/distributed.hpp"
#include "mesh/mesh_cache.hpp"
#include "sw/invariants.hpp"
#include "sw/model.hpp"
#include "sw/reference.hpp"

namespace mpas::comm {
namespace {

using sw::FieldId;

TEST(SimWorld, FifoMatchingByEndpointAndTag) {
  SimWorld w(3);
  w.send(0, 1, 7, {1.0, 2.0});
  w.send(0, 1, 7, {3.0});
  w.send(2, 1, 7, {9.0});
  EXPECT_TRUE(w.has_pending());
  EXPECT_EQ(w.recv(1, 0, 7), (std::vector<Real>{1.0, 2.0}));
  EXPECT_EQ(w.recv(1, 0, 7), (std::vector<Real>{3.0}));
  EXPECT_EQ(w.recv(1, 2, 7), (std::vector<Real>{9.0}));
  EXPECT_FALSE(w.has_pending());
  EXPECT_EQ(w.stats().messages, 3u);
  EXPECT_EQ(w.stats().bytes, 4 * sizeof(Real));
}

TEST(SimWorld, RecvWithoutMessageThrows) {
  SimWorld w(2);
  EXPECT_THROW(w.recv(1, 0, 0), Error);
  w.send(0, 1, 1, {1.0});
  EXPECT_THROW(w.recv(1, 0, 2), Error);  // wrong tag
}

TEST(SimWorld, SelfSendIsRejected) {
  SimWorld w(2);
  EXPECT_THROW(w.send(1, 1, 0, {1.0}), Error);
}

TEST(DistributedSw, RejectsIrregularVariant) {
  const auto mesh = mesh::get_global_mesh(2);
  sw::SwParams p;
  p.dt = 100;
  EXPECT_THROW(DistributedSw(*mesh, 2, p, sw::LoopVariant::Irregular), Error);
}

class DistributedVsSerial : public ::testing::TestWithParam<int> {};

TEST_P(DistributedVsSerial, OwnedValuesMatchSerialBitwise) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  const int steps = 5;

  sw::ReferenceIntegrator serial(*mesh, params, sw::LoopVariant::BranchFree);
  sw::apply_initial_conditions(*tc, *mesh, serial.fields());
  serial.initialize();
  serial.run(steps);

  DistributedSw dist(*mesh, GetParam(), params);
  dist.apply_test_case(*tc);
  dist.initialize();
  dist.run(steps);

  const auto h = dist.gather_global(FieldId::H);
  const auto u = dist.gather_global(FieldId::U);
  const auto h_ref = serial.fields().get(FieldId::H);
  const auto u_ref = serial.fields().get(FieldId::U);
  for (Index c = 0; c < mesh->num_cells; ++c)
    ASSERT_EQ(h[static_cast<std::size_t>(c)], h_ref[c]) << "cell " << c;
  for (Index e = 0; e < mesh->num_edges; ++e)
    ASSERT_EQ(u[static_cast<std::size_t>(e)], u_ref[e]) << "edge " << e;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedVsSerial,
                         ::testing::Values(2, 3, 4, 8));

TEST(DistributedSw, ReconstructionMatchesSerial) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(6);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);

  sw::ReferenceIntegrator serial(*mesh, params, sw::LoopVariant::BranchFree);
  sw::apply_initial_conditions(*tc, *mesh, serial.fields());
  serial.initialize();
  serial.run(3);

  DistributedSw dist(*mesh, 4, params);
  dist.apply_test_case(*tc);
  dist.initialize();
  dist.run(3);

  const auto zonal = dist.gather_global(FieldId::ReconZonal);
  const auto ref = serial.fields().get(FieldId::ReconZonal);
  for (Index c = 0; c < mesh->num_cells; ++c)
    ASSERT_EQ(zonal[static_cast<std::size_t>(c)], ref[c]);
}

TEST(DistributedSw, DiffusionPathMatchesSerial) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  params.nu_del2_u = 1e5;
  params.nu_del2_h = 1e4;

  sw::ReferenceIntegrator serial(*mesh, params, sw::LoopVariant::BranchFree);
  sw::apply_initial_conditions(*tc, *mesh, serial.fields());
  serial.initialize();
  serial.run(3);

  DistributedSw dist(*mesh, 4, params);
  dist.apply_test_case(*tc);
  dist.initialize();
  dist.run(3);

  const auto h = dist.gather_global(FieldId::H);
  const auto ref = serial.fields().get(FieldId::H);
  for (Index c = 0; c < mesh->num_cells; ++c)
    ASSERT_EQ(h[static_cast<std::size_t>(c)], ref[c]);
}

// The ranks' compute phases run concurrently on the integrator's pool; at
// 7 ranks there are more ranks than pool participants on a 4-way host, so
// participants take several ranks per phase. Either way run() must land
// bitwise on a serial SwModel on the global mesh.
class RankParallelVsSwModel
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RankParallelVsSwModel, GatheredStateMatchesSerialBitwise) {
  const auto [ranks, case_id] = GetParam();
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(case_id);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  const int steps = 4;

  sw::SwModel serial(*mesh, params);
  sw::apply_initial_conditions(*tc, *mesh, serial.fields());
  serial.initialize();
  serial.run(steps);

  DistributedSw dist(*mesh, ranks, params);
  dist.apply_test_case(*tc);
  dist.initialize();
  dist.run(steps);

  for (const FieldId id : {FieldId::H, FieldId::U}) {
    const auto got = dist.gather_global(id);
    const auto want = serial.fields().get(id);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << sw::field_info(id).name << "[" << i << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndCases, RankParallelVsSwModel,
    ::testing::Combine(::testing::Values(1, 4, 7), ::testing::Values(2, 5, 6)),
    [](const auto& info) {
      return "R" + std::to_string(std::get<0>(info.param)) + "_TC" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SimWorld, PendingSummaryListsQueues) {
  SimWorld w(3);
  EXPECT_EQ(w.pending_summary(), "none");
  w.send(0, 1, 2, {1.0});
  w.send(0, 1, 2, {2.0});
  EXPECT_EQ(w.pending_summary(), "0 -> 1 tag 2 x2");
  EXPECT_EQ(w.pending().size(), 1u);
  EXPECT_EQ(w.pending()[0].depth, 2u);
}

TEST(DistributedSw, CommVolumeScalesWithRanksNotSteps) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(2);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);

  std::uint64_t bytes2, bytes8;
  {
    DistributedSw d(*mesh, 2, params);
    d.apply_test_case(*tc);
    d.initialize();
    d.step();
    bytes2 = d.comm_stats().bytes;
  }
  {
    DistributedSw d(*mesh, 8, params);
    d.apply_test_case(*tc);
    d.initialize();
    d.step();
    bytes8 = d.comm_stats().bytes;
  }
  EXPECT_GT(bytes2, 0u);
  // Total halo surface grows with rank count.
  EXPECT_GT(bytes8, bytes2);
}

}  // namespace
}  // namespace mpas::comm
