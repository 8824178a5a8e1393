// The simulation service's contract, bottom-up: deterministic pricing,
// every rung of the admission ladder with its explicit reason, DWRR
// dispatch fairness, refcounted mesh sharing, and the SessionManager's
// end-to-end guarantees — bitwise-correct admitted runs, retry with
// modeled backoff, cooperative cancellation, modeled deadlines, and
// per-session fault isolation under a mid-run quarantine.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry/flight_recorder.hpp"
#include "obs/telemetry/slo.hpp"
#include "service/admission.hpp"
#include "service/fair_queue.hpp"
#include "service/mesh_store.hpp"
#include "service/request.hpp"
#include "service/session.hpp"
#include "service/session_manager.hpp"
#include "util/error.hpp"

namespace mpas::service {
namespace {

SessionRequest small_request(const std::string& tenant = "default") {
  SessionRequest req;
  req.tenant = tenant;
  req.mesh_level = 2;
  req.test_case = 2;
  req.steps = 4;
  req.output_every = 2;
  return req;
}

// ------------------------------------------------------------- cost model

TEST(CostModel, PricingIsDeterministicAndMonotonic) {
  const CostModel costs;
  const SessionRequest req = small_request();
  EXPECT_GT(costs.price(req), 0);
  EXPECT_EQ(costs.price(req), costs.price(req));

  SessionRequest finer = req;
  finer.mesh_level = 4;
  EXPECT_GT(costs.price(finer), costs.price(req));

  SessionRequest longer = req;
  longer.steps = 8;
  EXPECT_GT(costs.price(longer), costs.price(req));

  SessionRequest chattier = req;
  chattier.output_every = 1;
  EXPECT_GT(costs.price(chattier), costs.price(req));
}

// -------------------------------------------------------- admission ladder

class AdmissionLadder : public ::testing::Test {
 protected:
  AdmissionLadder() : costs_() {
    policy_.max_queued_per_tenant = 4;
    // Capacity sized in units of the level-2 request so each rung is easy
    // to force: room for ~2 such sessions.
    policy_.capacity_modeled_s = 2.5 * costs_.price(small_request());
  }
  CostModel costs_;
  AdmissionPolicy policy_;
};

TEST_F(AdmissionLadder, AdmitsWithinGuarantee) {
  const AdmissionController admission(policy_, &costs_);
  const auto verdict = admission.decide(small_request(), {});
  EXPECT_EQ(verdict.action, AdmissionOutcome::Action::Admit);
  EXPECT_FALSE(verdict.borrowed);
  EXPECT_TRUE(verdict.shed.empty());
}

TEST_F(AdmissionLadder, BackpressureRejectsFloodingTenant) {
  const AdmissionController admission(policy_, &costs_);
  AdmissionInput input;
  input.queued_of_tenant = policy_.max_queued_per_tenant;
  const auto verdict = admission.decide(small_request(), input);
  EXPECT_EQ(verdict.action, AdmissionOutcome::Action::Reject);
  EXPECT_NE(verdict.reason.find("backpressure"), std::string::npos);
}

TEST_F(AdmissionLadder, LoneTenantBorrowsSpareCapacity) {
  AdmissionController admission(policy_, &costs_);
  admission.set_tenant_weight("a", 1.0);
  admission.set_tenant_weight("b", 1.0);
  // Tenant a's guarantee is half the capacity; with b idle, a's second
  // session still fits and is admitted as borrowed.
  const Real cost = costs_.price(small_request("a"));
  AdmissionInput input;
  input.outstanding_total = cost;
  input.outstanding_by_tenant["a"] = cost;
  const auto verdict = admission.decide(small_request("a"), input);
  EXPECT_EQ(verdict.action, AdmissionOutcome::Action::Admit);
  EXPECT_TRUE(verdict.borrowed);
}

TEST_F(AdmissionLadder, GuaranteeReclaimsBorrowedQueueSlot) {
  AdmissionController admission(policy_, &costs_);
  admission.set_tenant_weight("a", 1.0);
  admission.set_tenant_weight("b", 1.0);
  const Real cost = costs_.price(small_request("a"));
  // Tenant a has filled the service past b's guarantee with one borrowed
  // *queued* session; b's first submission reclaims exactly that slot.
  AdmissionInput input;
  input.outstanding_total = 2 * cost;
  input.outstanding_by_tenant["a"] = 2 * cost;
  input.queued.push_back({7, "a", 1, cost, /*borrowed=*/true, /*seq=*/7});
  const auto verdict = admission.decide(small_request("b"), input);
  ASSERT_EQ(verdict.action, AdmissionOutcome::Action::Admit);
  EXPECT_EQ(verdict.reason_code, ReasonCode::AdmitReclaimed);
  ASSERT_EQ(verdict.shed.size(), 1u);
  EXPECT_EQ(verdict.shed[0].id, 7u);
  EXPECT_EQ(verdict.shed[0].code, ReasonCode::ShedReclaimed);
  EXPECT_NE(verdict.shed[0].reason.find("reclaimed"), std::string::npos);
}

TEST_F(AdmissionLadder, BurnRateChangesTheVerdict) {
  // The SLO coupling: an identical submission is rejected at burn 0 and
  // admitted (by reclaiming a borrower) when the tenant is burning its
  // error budget at twice the refill rate.
  const Real unit = costs_.price(small_request());
  policy_.capacity_modeled_s = 4 * unit;
  AdmissionController admission(policy_, &costs_);
  admission.set_tenant_weight("a", 1.0);
  admission.set_tenant_weight("b", 1.0);

  // a is 0.5 units over its 2-unit guarantee with one borrowed queued
  // session; b is already at 1.5 units, so one more unit lands beyond b's
  // guarantee and the reclaim rung normally refuses to thrash for it.
  AdmissionInput input;
  input.outstanding_total = 4 * unit;
  input.outstanding_by_tenant["a"] = 2.5 * unit;
  input.outstanding_by_tenant["b"] = 1.5 * unit;
  input.queued.push_back({7, "a", 1, 1.5 * unit, /*borrowed=*/true, 7});
  SessionRequest req = small_request("b");
  req.allow_degraded = false;

  const auto calm = admission.decide(req, input);
  EXPECT_EQ(calm.action, AdmissionOutcome::Action::Reject);
  EXPECT_EQ(calm.reason_code, ReasonCode::RejectOverload);

  input.tenant_burn_rate = 3.0;  // >= slo_burn_guarantee (2.0)
  const auto burning = admission.decide(req, input);
  ASSERT_EQ(burning.action, AdmissionOutcome::Action::Admit);
  EXPECT_EQ(burning.reason_code, ReasonCode::AdmitReclaimed);
  EXPECT_NE(burning.reason.find("SLO burn-rate priority"),
            std::string::npos);
  ASSERT_EQ(burning.shed.size(), 1u);
  EXPECT_EQ(burning.shed[0].id, 7u);
  EXPECT_EQ(burning.shed[0].code, ReasonCode::ShedReclaimed);
  EXPECT_NE(burning.shed[0].reason.find("SLO burn-rate priority"),
            std::string::npos);
}

TEST_F(AdmissionLadder, PrioritySheddingEvictsLowestYoungest) {
  const AdmissionController admission(policy_, &costs_);
  const Real cost = costs_.price(small_request());
  AdmissionInput input;
  input.outstanding_total = 2.4 * cost;
  input.outstanding_by_tenant["default"] = 2.4 * cost;
  input.queued.push_back({3, "default", 1, cost, false, 3});
  input.queued.push_back({5, "default", 1, cost, false, 5});  // youngest
  SessionRequest urgent = small_request();
  urgent.priority = 9;
  const auto verdict = admission.decide(urgent, input);
  ASSERT_EQ(verdict.action, AdmissionOutcome::Action::Admit);
  EXPECT_EQ(verdict.reason_code, ReasonCode::AdmitAfterShed);
  ASSERT_GE(verdict.shed.size(), 1u);
  EXPECT_EQ(verdict.shed[0].id, 5u);  // lowest priority, youngest first
  EXPECT_EQ(verdict.shed[0].code, ReasonCode::ShedPriority);
  EXPECT_NE(verdict.shed[0].reason.find("shed"), std::string::npos);
}

TEST_F(AdmissionLadder, OverloadDegradesFidelityWithReason) {
  const AdmissionController admission(policy_, &costs_);
  // A level-4 run alone exceeds the (level-2-sized) capacity; nothing is
  // queued to shed, so the ladder lands on degradation.
  SessionRequest big = small_request();
  big.mesh_level = 4;
  big.priority = 0;
  const auto verdict = admission.decide(big, {});
  ASSERT_EQ(verdict.action, AdmissionOutcome::Action::AdmitDegraded);
  EXPECT_LT(verdict.effective.mesh_level, big.mesh_level);
  EXPECT_GT(verdict.effective.output_every, big.output_every);
  EXPECT_NE(verdict.reason.find("degraded under overload"),
            std::string::npos);
}

TEST_F(AdmissionLadder, RejectionCarriesTheArithmetic) {
  const AdmissionController admission(policy_, &costs_);
  SessionRequest big = small_request();
  big.mesh_level = 4;
  big.allow_degraded = false;
  const auto verdict = admission.decide(big, {});
  ASSERT_EQ(verdict.action, AdmissionOutcome::Action::Reject);
  EXPECT_NE(verdict.reason.find("overload"), std::string::npos);
  EXPECT_NE(verdict.reason.find("not permitted"), std::string::npos);
}

// ------------------------------------------------------------- fair queue

TEST(FairQueue, DwrrServesTenantsByWeight) {
  FairQueue queue;
  queue.set_weight("heavy", 3.0);
  queue.set_weight("light", 1.0);
  std::uint64_t id = 1;
  for (int i = 0; i < 12; ++i) {
    queue.push({id, "heavy", 1, 1.0, false, id});
    ++id;
    queue.push({id, "light", 1, 1.0, false, id});
    ++id;
  }
  std::map<std::string, int> served;
  for (int i = 0; i < 16; ++i) {
    const auto e = queue.pop();
    ASSERT_TRUE(e.has_value());
    served[e->tenant] += 1;
  }
  // 3:1 weights over equal-cost work: heavy gets ~12 of 16 pops.
  EXPECT_GE(served["heavy"], 11);
  EXPECT_LE(served["heavy"], 13);
}

TEST(FairQueue, RemoveEvictsQueuedEntry) {
  FairQueue queue;
  queue.push({1, "a", 1, 1.0, false, 1});
  queue.push({2, "a", 1, 1.0, false, 2});
  EXPECT_TRUE(queue.remove(1));
  EXPECT_FALSE(queue.remove(1));
  const auto e = queue.pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, 2u);
  EXPECT_TRUE(queue.empty());
}

// -------------------------------------------------------------- mesh store

TEST(MeshStore, CoResidentSessionsShareOneMesh) {
  MeshStore store;
  {
    const MeshLease a = store.acquire(2);
    const MeshLease b = store.acquire(2);
    EXPECT_EQ(a.get(), b.get());  // one instance, two refs
    EXPECT_EQ(store.refs(2), 2);
    EXPECT_EQ(store.resident_levels(), 1u);
  }
  EXPECT_EQ(store.refs(2), 0);
  EXPECT_EQ(store.resident_levels(), 0u);
}

// ---------------------------------------------------------- session manager

ServiceOptions small_service(int workers = 2) {
  ServiceOptions opts;
  opts.workers = workers;
  const CostModel costs;
  opts.admission.capacity_modeled_s = 100 * costs.price(small_request());
  return opts;
}

TEST(SessionManager, AdmittedSessionsCompleteBitwiseCorrect) {
  SessionManager service(small_service());
  const auto id1 = service.submit(small_request("a"));
  const auto id2 = service.submit(small_request("b"));
  ASSERT_TRUE(service.drain());

  for (const auto id : {id1, id2}) {
    const SessionResult r = service.result(id);
    EXPECT_EQ(r.state, SessionState::Completed) << r.reason;
    EXPECT_EQ(r.reason_code, ReasonCode::Completed);
    EXPECT_EQ(r.steps_done, 4);
    EXPECT_EQ(r.outputs_written, 2);
    EXPECT_EQ(r.replans, 0);
    EXPECT_GT(r.modeled_seconds, 0);
    // The service ran a hybrid schedule; the hash must still match the
    // plain reference integrator bit for bit.
    EXPECT_EQ(r.state_hash, reference_hash(r.mesh_level_used, 2, 4));
  }
}

TEST(SessionManager, TransientFaultsRetryWithBackoffThenSucceed) {
  SessionManager service(small_service(1));
  SessionRequest req = small_request();
  req.chaos.fail_first_attempts = 2;
  const auto id = service.submit(req);
  ASSERT_TRUE(service.drain());

  const SessionResult r = service.result(id);
  EXPECT_EQ(r.state, SessionState::Completed) << r.reason;
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(service.stats().retries, 2u);
  // Backoff was charged as modeled time on top of the run itself.
  EXPECT_GT(r.modeled_seconds, r.step_modeled_seconds[0] * 4);
}

TEST(SessionManager, PersistentTransientFaultFailsAfterBudget) {
  SessionManager service(small_service(1));
  SessionRequest req = small_request();
  req.chaos.fail_first_attempts = 100;
  const auto id = service.submit(req);
  ASSERT_TRUE(service.drain());

  const SessionResult r = service.result(id);
  EXPECT_EQ(r.state, SessionState::Failed);
  EXPECT_EQ(r.reason_code, ReasonCode::TransientExhausted);
  EXPECT_NE(r.reason.find("transient fault persisted"), std::string::npos);
}

TEST(SessionManager, DeadlineHonoredAtStepBoundary) {
  SessionManager service(small_service(1));
  SessionRequest req = small_request();
  req.steps = 50;
  const CostModel costs;
  // Budget for roughly three steps of a 50-step run.
  req.deadline_modeled_s = 3.2 * costs.step_seconds(req.mesh_level);
  const auto id = service.submit(req);
  ASSERT_TRUE(service.drain());

  const SessionResult r = service.result(id);
  EXPECT_EQ(r.state, SessionState::TimedOut);
  EXPECT_EQ(r.reason_code, ReasonCode::DeadlineExceeded);
  EXPECT_GT(r.steps_done, 0);
  EXPECT_LT(r.steps_done, 50);
  EXPECT_NE(r.reason.find("deadline"), std::string::npos);
}

TEST(SessionManager, CancelQueuedAndRunningSessions) {
  SessionManager service(small_service(1));
  service.set_paused(true);
  const auto id1 = service.submit(small_request());
  const auto id2 = service.submit(small_request());
  // id2 is queued behind id1 and paused; evict it before dispatch.
  EXPECT_TRUE(service.cancel(id2));
  EXPECT_EQ(service.result(id2).state, SessionState::Cancelled);
  EXPECT_EQ(service.result(id2).reason_code, ReasonCode::CancelledByUser);
  service.set_paused(false);
  ASSERT_TRUE(service.drain());
  EXPECT_EQ(service.result(id1).state, SessionState::Completed);
  EXPECT_FALSE(service.cancel(id1));  // already terminal
}

TEST(SessionManager, QuarantineDegradesOnlyTheVictimSession) {
  SessionManager service(small_service(2));
  SessionRequest victim = small_request("victim");
  victim.steps = 8;
  victim.chaos.quarantine_accel_at_step = 3;
  SessionRequest bystander = small_request("bystander");
  bystander.steps = 8;

  const auto vid = service.submit(victim);
  const auto bid = service.submit(bystander);
  ASSERT_TRUE(service.drain());

  const SessionResult v = service.result(vid);
  const SessionResult b = service.result(bid);
  // The victim healed: quarantined its device, replanned, still bitwise.
  EXPECT_EQ(v.state, SessionState::Completed) << v.reason;
  EXPECT_GE(v.replans, 1);
  EXPECT_EQ(v.state_hash, reference_hash(v.mesh_level_used, 2, 8));
  // The co-resident session never noticed.
  EXPECT_EQ(b.state, SessionState::Completed) << b.reason;
  EXPECT_EQ(b.replans, 0);
  EXPECT_EQ(b.state_hash, v.state_hash);  // same experiment, same bits
}

TEST(SessionManager, ThrowingSessionFailsAloneAndServiceSurvives) {
  SessionManager service(small_service(2));
  SessionRequest bad = small_request();
  bad.test_case = 99;  // make_test_case throws
  const auto bad_id = service.submit(bad);
  const auto good_id = service.submit(small_request());
  ASSERT_TRUE(service.drain());

  EXPECT_EQ(service.result(bad_id).state, SessionState::Failed);
  EXPECT_EQ(service.result(bad_id).reason_code, ReasonCode::SessionFault);
  EXPECT_NE(service.result(bad_id).reason.find("session threw"),
            std::string::npos);
  EXPECT_EQ(service.result(good_id).state, SessionState::Completed);
  // The service still takes work after a member died.
  const auto next = service.submit(small_request());
  ASSERT_TRUE(service.drain());
  EXPECT_EQ(service.result(next).state, SessionState::Completed);
}

TEST(SessionManager, SaturationSharesFollowTenantWeights) {
  // Capacity for ~6 small sessions; tenants weighted 2:1 submit 12 each
  // round-robin while dispatch is paused, so admission alone decides who
  // gets capacity. Admitted-work shares must land within 10% of 2/3:1/3.
  ServiceOptions opts;
  opts.workers = 2;
  const CostModel costs;
  const Real unit = costs.price(small_request());
  opts.admission.capacity_modeled_s = 6 * unit + unit / 2;
  opts.admission.max_queued_per_tenant = 32;
  SessionManager service(opts);
  service.set_tenant_weight("gold", 2.0);
  service.set_tenant_weight("bronze", 1.0);
  service.set_paused(true);
  for (int i = 0; i < 12; ++i) {
    SessionRequest gold = small_request("gold");
    SessionRequest bronze = small_request("bronze");
    gold.allow_degraded = bronze.allow_degraded = false;
    service.submit(gold);
    service.submit(bronze);
  }
  const ServiceStats at_saturation = service.stats();
  service.set_paused(false);
  ASSERT_TRUE(service.drain());

  const Real gold_s = at_saturation.admitted_seconds_by_tenant.at("gold");
  const Real bronze_s =
      at_saturation.admitted_seconds_by_tenant.at("bronze");
  const Real share = gold_s / (gold_s + bronze_s);
  EXPECT_NEAR(share, 2.0 / 3.0, 0.1 * 2.0 / 3.0);
  EXPECT_GT(service.stats().rejected, 0u);  // it really was saturated
}

// -------------------------------------------------- slo + flight recorder

TEST(SessionManager, SloTrackerFollowsSessionOutcomes) {
  ServiceOptions opts = small_service(1);
  SessionManager service(opts);
  service.submit(small_request("a"));
  SessionRequest doomed = small_request("a");
  doomed.chaos.fail_first_attempts = 100;
  service.submit(doomed);
  ASSERT_TRUE(service.drain());

  namespace telemetry = obs::telemetry;
  const telemetry::SloTracker& slo = service.slo();
  // Two sessions ran: one completed, one failed -> error-rate attainment
  // is 1/2 and its budget (default target 0.95) is burning hard.
  EXPECT_EQ(slo.samples("a", telemetry::SloDimension::ErrorRate), 2u);
  EXPECT_DOUBLE_EQ(slo.attainment("a", telemetry::SloDimension::ErrorRate),
                   0.5);
  EXPECT_GT(slo.worst_burn_rate("a"), 1.0);
  // Neither timed out, so the deadline dimension is clean.
  EXPECT_DOUBLE_EQ(
      slo.attainment("a", telemetry::SloDimension::DeadlineMiss), 1.0);
  // The failure breached the error SLO and the service counted it.
  EXPECT_GE(service.stats().slo_breaches, 1u);
}

TEST(SessionManager, FailureDumpsTheFlightRecorder) {
  const std::string dir = "test_flight_dumps";
  std::filesystem::remove_all(dir);
  ServiceOptions opts = small_service(1);
  opts.flight_dump = obs::telemetry::FlightDumpPolicy::parse(dir);
  SessionManager service(opts);

  const auto ok_id = service.submit(small_request("fine"));
  SessionRequest doomed = small_request("doomed");
  doomed.chaos.fail_first_attempts = 100;
  const auto bad_id = service.submit(doomed);
  ASSERT_TRUE(service.drain());
  ASSERT_EQ(service.result(ok_id).state, SessionState::Completed);
  ASSERT_EQ(service.result(bad_id).state, SessionState::Failed);

  // Only the failure produced a black box; the healthy session stayed
  // output-free.
  EXPECT_EQ(service.stats().flight_dumps, 1u);
  const std::string ok_path =
      dir + "/flight_session" + std::to_string(ok_id) + ".json";
  EXPECT_FALSE(std::filesystem::exists(ok_path));

  const std::string bad_path =
      dir + "/flight_session" + std::to_string(bad_id) + ".json";
  std::ifstream in(bad_path);
  ASSERT_TRUE(in.good()) << bad_path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto doc = obs::json::parse(text);
  EXPECT_EQ(doc.at("trigger").as_string(), "failure");
  EXPECT_EQ(doc.at("tenant").as_string(), "doomed");
  EXPECT_DOUBLE_EQ(doc.at("session").as_number(),
                   static_cast<double>(bad_id));
  // The box replays the session's fate: admission, dispatch, the retry
  // storm, and the terminal verdict.
  std::map<std::string, int> kinds;
  for (const auto& e : doc.at("events").as_array())
    kinds[e.at("kind").as_string()] += 1;
  EXPECT_EQ(kinds["admission"], 1);
  EXPECT_EQ(kinds["dispatch"], 1);
  EXPECT_GE(kinds["retry"], 2);
  EXPECT_EQ(kinds["terminal"], 1);
  std::filesystem::remove_all(dir);
}

TEST(SessionManager, FinishedSessionsLetGoOfTheirFlightRecorders) {
  // A finished record keeps its SessionResult but not its recorder (each
  // reserves a ring of events), so memory does not grow with the number
  // of sessions served — and a session whose dump is due still writes it.
  const std::string dir = "test_flight_release";
  std::filesystem::remove_all(dir);
  ServiceOptions opts = small_service(1);
  opts.flight_dump = obs::telemetry::FlightDumpPolicy::parse(dir);
  SessionManager service(opts);

  service.set_paused(true);
  const auto ok_id = service.submit(small_request("fine"));
  SessionRequest doomed = small_request("doomed");
  doomed.chaos.fail_first_attempts = 100;
  const auto bad_id = service.submit(doomed);
  EXPECT_EQ(service.flight_recorders_held(), 2u);  // queued: still live

  service.set_paused(false);
  ASSERT_TRUE(service.drain());
  ASSERT_EQ(service.result(ok_id).state, SessionState::Completed);
  ASSERT_EQ(service.result(bad_id).state, SessionState::Failed);
  EXPECT_EQ(service.flight_recorders_held(), 0u);

  EXPECT_EQ(service.stats().flight_dumps, 1u);
  std::ifstream in(dir + "/flight_session" + std::to_string(bad_id) +
                   ".json");
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto doc = obs::json::parse(text);
  EXPECT_EQ(doc.at("trigger").as_string(), "failure");
  std::map<std::string, int> kinds;
  for (const auto& e : doc.at("events").as_array())
    kinds[e.at("kind").as_string()] += 1;
  EXPECT_EQ(kinds["terminal"], 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mpas::service
