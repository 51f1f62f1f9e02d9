/// serve_mixed: an in-process ape_serve (serve::Server, max_in_flight 2,
/// queue_slots 2, an LRU cache well below the estimate population) and
/// two closed-loop serve::Client connections. Each round both clients
/// send the same synthesize request concurrently (heavy path: protocol,
/// admission, supervisor, anneal, verify), then each sends three
/// estimate requests (light path: framing, cache, estimator), client 0
/// before client 1.
///
/// The server derives each synthesis stream from the request seed and
/// its arrival ordinal, so the two concurrent requests of a round carry
/// the same spec and seed: whichever arrives first, the round's pair of
/// outcomes is the same. Estimates are sequenced so the LRU sees one
/// fixed access order. Every count therefore repeats at one seed.

#include <barrier>
#include <map>
#include <thread>
#include <poll.h>
#include <unistd.h>

#include "harness.h"
#include "src/estimator/process.h"
#include "src/estimator/verify.h"
#include "src/lint/prove.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/synth/astrx.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace apebench {
namespace {

using ape::est::OpAmpSpec;
using ape::est::Process;

constexpr int kClients = 2;
constexpr int kSynthIterations = 400;
constexpr int kEstPerRound = 8;
constexpr int kEstPopulation = 48;
constexpr size_t kCacheCapacity = 16;
constexpr double kRoundSeconds = 0.055;  ///< nominal cost of one round
constexpr int kPings = 200;
constexpr int kSetupRepsServe = 5;  ///< set-ups per run (server start, warm-up round)

/// Synthesis ordinals taken by the warm-up round before the timed phase.
constexpr uint64_t kWarmOrdinals = kClients;

struct Daemon {
  Daemon(const Process& proc, ape::serve::ServeOptions o) : server(proc, std::move(o)) {
    runner = std::thread([this] { exit_code = server.serve_forever(); });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int stop() {
    server.request_drain();
    if (runner.joinable()) runner.join();
    return exit_code;
  }

  ape::serve::Server server;
  std::thread runner;
  int exit_code = -1;
};

struct Reply {
  long round = 0;
  int client = 0;
  bool synth = false;
  int est_index = -1;
  double ms = 0.0;
  bool ok = false;
  bool meets = false;
  double gain = 0.0, ugf_hz = 0.0;
};

/// Inputs of one round, derived from the seed alone.
struct RoundInput {
  OpAmpSpec spec;
  uint64_t seed = 1;  ///< < 2^53: travels as a JSON number
  int est[kClients][kEstPerRound] = {};
};

struct State {
  std::unique_ptr<Daemon> daemon;  // destroyed after the clients
  std::vector<std::unique_ptr<ape::serve::Client>> clients;
  std::vector<OpAmpSpec> est_pop;
};

std::string synth_request(const RoundInput& in, long round, int client) {
  return "{\"op\":\"synthesize\",\"id\":\"s" + std::to_string(round) + "." +
         std::to_string(client) + "\",\"spec\":" + ape::serve::spec_to_json(in.spec) +
         ",\"iterations\":" + std::to_string(kSynthIterations) +
         ",\"seed\":" + std::to_string(in.seed) + ",\"timeout_ms\":60000}";
}

std::string estimate_request(const OpAmpSpec& spec, long round, int client, int j) {
  return "{\"op\":\"estimate\",\"id\":\"e" + std::to_string(round) + "." +
         std::to_string(client) + "." + std::to_string(j) +
         "\",\"spec\":" + ape::serve::spec_to_json(spec) + "}";
}

/// Parse one response into \p r; returns false on a malformed reply.
bool parse_reply(const std::string& text, Reply& r) {
  try {
    const ape::json::Value v = ape::json::parse(text);
    const ape::json::Value* status = v.find("status");
    const ape::json::Value* degraded = v.find("degraded");
    r.ok = status != nullptr && status->as_string() == "ok" && degraded != nullptr &&
           !degraded->as_bool();
    if (const ape::json::Value* m = v.find("meets_spec")) r.meets = m->as_bool();
    if (const ape::json::Value* perf = v.find("perf")) {
      r.gain = perf->find("gain")->as_number();
      r.ugf_hz = perf->find("ugf_hz")->as_number();
    }
    return true;
  } catch (const ape::Error&) {
    r.ok = false;
    return false;
  }
}

std::map<std::string, double> stats_of(ape::serve::Client& c) {
  std::map<std::string, double> out;
  const ape::json::Value v = ape::json::parse(c.call("{\"op\":\"stats\"}"));
  for (const auto& [k, val] : v.members) {
    if (val.kind == ape::json::Value::Kind::Number) out[k] = val.number;
  }
  return out;
}

/// Runs rounds [0, inputs.size()) on the clients; one thread per client.
std::vector<Reply> run_rounds(State& st, const std::vector<RoundInput>& inputs,
                              const std::vector<bool>& traced, double* wall_s) {
  std::barrier sync(kClients);
  std::vector<std::vector<Reply>> logs(kClients);
  // Estimate replies are awaited by polling the socket instead of
  // sleeping in read(), so the client's own wake-up is not timed.
  auto call = [](ape::serve::Client& c, const std::string& req, Reply& r, bool spin) {
    const double t0 = now_s();
    try {
      c.send(req);
      if (spin) {
        pollfd pfd{c.fd(), POLLIN, 0};
        while (::poll(&pfd, 1, 0) == 0) {
        }
      }
      parse_reply(c.receive(), r);
    } catch (const ape::Error&) {
      r.ok = false;
    }
    r.ms = (now_s() - t0) * 1e3;
  };
  auto client_loop = [&](int c) {
    ape::serve::Client& client = *st.clients[static_cast<size_t>(c)];
    for (size_t i = 0; i < inputs.size(); ++i) {
      const long round = static_cast<long>(i);
      const RoundInput& in = inputs[i];
      sync.arrive_and_wait();
      {
        SpanScope s("serve.synthesize", round, traced[i]);
        Reply r;
        r.round = round;
        r.client = c;
        r.synth = true;
        call(client, synth_request(in, round, c), r, false);
        logs[static_cast<size_t>(c)].push_back(r);
      }
      sync.arrive_and_wait();
      for (int turn = 0; turn < kClients; ++turn) {
        if (turn == c) {
          for (int j = 0; j < kEstPerRound; ++j) {
            SpanScope s("serve.estimate", round, traced[i]);
            Reply r;
            r.round = round;
            r.client = c;
            r.est_index = in.est[c][j];
            call(client, estimate_request(st.est_pop[static_cast<size_t>(r.est_index)], round, c, j), r,
                 true);
            logs[static_cast<size_t>(c)].push_back(r);
          }
        }
        sync.arrive_and_wait();
      }
    }
  };
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  for (auto& t : threads) t.join();
  *wall_s = now_s() - t0;
  std::vector<Reply> all;
  for (const auto& log : logs) all.insert(all.end(), log.begin(), log.end());
  return all;
}

}  // namespace

Result run_serve_mixed(const Options& opt) {
  Result r;
  const Process proc = Process::default_1u2();
  const std::vector<OpAmpSpec> base = table1_specs();
  const std::vector<OpAmpSpec> synth_specs = buffered_table1_specs();
  const long n_rounds = op_count(opt.seconds, kRoundSeconds, 20);
  // Input streams: timed rounds, the warm-up round, the estimate population.
  constexpr uint64_t kTimedStream = 1, kWarmStream = 7, kPopulationStream = 3;
  auto round_input = [&](uint64_t stream, long i) {
    RoundInput in;
    in.spec = synth_specs[static_cast<size_t>(i) % synth_specs.size()];
    in.seed = (mix(opt.seed, stream << 32 | static_cast<uint64_t>(i)) >> 11) | 1;
    for (int c = 0; c < kClients; ++c) {
      for (int j = 0; j < kEstPerRound; ++j) {
        const uint64_t k = (static_cast<uint64_t>(i) * kClients + c) * kEstPerRound + j;
        in.est[c][j] = static_cast<int>(mix(opt.seed, (stream + 1) << 32 | k) % kEstPopulation);
      }
    }
    return in;
  };
  std::vector<RoundInput> inputs;
  std::vector<bool> traced;
  for (long i = 0; i < n_rounds; ++i) {
    inputs.push_back(round_input(kTimedStream, i));
    traced.push_back(opt.trace && traced_round(i));
  }
  const std::string socket =
      opt.workdir + "/apebench-" + std::to_string(::getpid()) + ".sock";

  double setup_s = 0.0;
  auto state = timed_setup(
      kSetupRepsServe,
      [&] {
        auto s = std::make_unique<State>();
        for (int i = 0; i < kEstPopulation; ++i) {
          s->est_pop.push_back(jitter(base[static_cast<size_t>(i) % base.size()], opt.seed,
                                      kPopulationStream << 32 | static_cast<uint64_t>(i), 0.2));
        }
        ape::serve::ServeOptions so;
        so.socket_path = socket;
        so.max_in_flight = 2;
        so.queue_slots = 2;
        so.cache_capacity = kCacheCapacity;
        so.max_deadline_s = 60.0;
        so.seed = opt.seed;
        s->daemon = std::make_unique<Daemon>(proc, so);
        for (int c = 0; c < kClients; ++c) {
          s->clients.push_back(std::make_unique<ape::serve::Client>(socket));
        }
        double wall = 0.0;
        run_rounds(*s, {round_input(kWarmStream, 0)}, {false}, &wall);  // warm-up round
        return s;
      },
      &setup_s);

  const std::map<std::string, double> before = stats_of(*state->clients[0]);
  double phase_s = 0.0;
  const std::vector<Reply> replies = run_rounds(*state, inputs, traced, &phase_s);
  const std::map<std::string, double> after = stats_of(*state->clients[0]);
  auto delta = [&](const char* key) {
    auto a = after.find(key), b = before.find(key);
    return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
  };

  // Serve-layer probes (traced run): ping round trips on an idle server.
  std::vector<double> ping_us;
  if (opt.trace) {
    for (int i = 0; i < kPings; ++i) {
      const double t0 = now_s();
      state->clients[0]->call("{\"op\":\"ping\"}");
      ping_us.push_back((now_s() - t0) * 1e6);
    }
  }

  state->clients.clear();
  const int drain_code = state->daemon->stop();
  const ape::serve::ServerStats fin = state->daemon->server.stats();
  r.check(drain_code == 0, "serve_mixed: drain returned nonzero");
  r.check(fin.accepted == fin.completed_ok + fin.cancelled + fin.errors,
          "serve_mixed: accepted != completed_ok + cancelled + errors");
  r.check(fin.framing_errors == 0 && fin.malformed_frames == 0,
          "serve_mixed: framing errors on well-formed traffic");

  // Local reference for every estimate spec the rounds used: responses
  // must equal the library's estimate, and its simulation gives the
  // est-vs-sim error.
  std::map<int, ape::est::OpAmpDesign> local;
  for (const Reply& rep : replies) {
    if (rep.est_index >= 0 && !local.count(rep.est_index)) {
      local[rep.est_index] = ape::est::OpAmpEstimator(proc).estimate(
          state->est_pop[static_cast<size_t>(rep.est_index)]);
    }
  }
  RunData d;
  d.setup_s = setup_s;
  d.phase_s = phase_s;
  for (const Reply& rep : replies) {
    if (rep.ok) ++d.ok_ops;
    if (rep.synth) {
      ++d.timed_ops;
      d.op_ms.push_back(rep.ms);
      if (rep.ok && rep.meets) ++d.met;
    } else {
      d.est_ms.push_back(rep.ms);
      const ape::est::OpAmpDesign& ref = local[rep.est_index];
      r.check(!rep.ok || (rep.gain == ref.perf.gain && rep.ugf_hz == ref.perf.ugf_hz),
              "serve_mixed: an estimate response differs from the library's estimate");
    }
  }
  d.verified = d.timed_ops;
  // A reference simulation that throws is counted, not a failed check.
  long sim_failures = 0;
  for (const auto& [idx, ref] : local) {
    try {
      const ape::est::OpAmpSimReport sim = ape::est::simulate_opamp(ref, proc);
      d.gain_err.push_back(rel_err(ref.perf.gain, sim.gain));
      if (sim.ugf_hz) d.ugf_err.push_back(rel_err(ref.perf.ugf_hz, *sim.ugf_hz));
    } catch (const ape::Error&) {
      ++sim_failures;
    }
  }
  r.record["reference_sim_failures"] = std::to_string(sim_failures);
  r.attempted = static_cast<long>(replies.size());
  r.failed = r.attempted - d.ok_ops;
  r.record["traffic"] = std::to_string(n_rounds) + " rounds x " + std::to_string(kClients) +
                        " closed-loop clients (1 synthesize + " +
                        std::to_string(kEstPerRound) + " estimates each)";
  set_end_to_end(r, d);
  if (!opt.trace) return r;

  // Traced run: replay each traced round's heavy request directly —
  // admission proof, APE seed estimate, synthesize_opamp at the same
  // iterations and stream, then its verification — and each light
  // request's estimate.
  SpiceSplit spice;
  std::vector<double> direct_ms, prove_us, est_us, traced_ms, untraced_ms;
  double synth_self_s = 0.0;
  long evals = 0, skipped = 0, pruned = 0;
  for (const Reply& rep : replies) {
    if (rep.synth) (traced[static_cast<size_t>(rep.round)] ? traced_ms : untraced_ms).push_back(rep.ms);
  }
  for (long i = 0; i < n_rounds; ++i) {
    if (!traced[static_cast<size_t>(i)]) continue;
    const RoundInput& in = inputs[static_cast<size_t>(i)];
    for (int c = 0; c < kClients; ++c) {
      for (int j = 0; j < kEstPerRound; ++j) {
        const double a = now_s();
        SpanScope s("replay.estimate", i);
        ape::est::OpAmpEstimator(proc).estimate(state->est_pop[static_cast<size_t>(in.est[c][j])]);
        est_us.push_back((now_s() - a) * 1e6);
      }
    }
    double a = now_s();
    ape::lint::FeasibilityProof proof;
    {
      SpanScope s("replay.prove_opamp_feasibility", i);
      ape::lint::ProveOptions po;
      po.contraction_segments = 0;  // what admission runs
      proof = ape::lint::prove_opamp_feasibility(proc, in.spec, po);
    }
    prove_us.push_back((now_s() - a) * 1e6);
    if (proof.infeasible) {
      ++pruned;
      continue;
    }
    a = now_s();
    ape::est::OpAmpDesign seed_design;
    {
      SpanScope s("replay.estimate", i);
      seed_design = ape::est::OpAmpEstimator(proc).estimate(in.spec);
    }
    est_us.push_back((now_s() - a) * 1e6);
    ape::synth::SynthesisOptions so;
    so.use_ape_seed = true;
    so.anneal.iterations = kSynthIterations;
    so.anneal.seed = ape::Rng::derive_stream(in.seed, kWarmOrdinals + kClients * static_cast<uint64_t>(i));
    so.restart_threads = 1;
    so.seed_design = &seed_design;
    so.feasible_box = proof.feasible_box;
    so.cost_lower_bound = proof.cost_lower_bound;
    ape::synth::SynthesisOutcome out;
    ape::KernelStats ks;
    a = now_s();
    {
      ape::ScopedKernelStatsSink sink(ks);
      SpanScope s("replay.synthesize_opamp", i);
      out = ape::synth::synthesize_opamp(proc, in.spec, so);
    }
    const double synth_s = now_s() - a;
    spice.kernel.accumulate(ks);
    a = now_s();
    ape::synth::SynthesisOutcome fin;
    {
      SpanScope s("replay.finalize_opamp_outcome", i);
      fin = ape::synth::finalize_opamp_outcome(proc, in.spec, out.best_x, out.cost);
    }
    const double v = now_s() - a;
    a = now_s();
    {
      SpanScope s("replay.simulate_opamp_ac", i);
      ape::est::simulate_opamp(fin.design, proc, /*with_transient=*/false);
    }
    spice.ac_ms.push_back((now_s() - a) * 1e3);
    spice.verify_ms.push_back(v * 1e3);
    ++spice.sims;
    if (out.sim_failed) ++spice.sim_failed;
    direct_ms.push_back(synth_s * 1e3);
    synth_self_s += synth_s - v;
    evals += out.evaluations;
    skipped += out.skipped_candidates;
  }
  set_synth_layer(r, evals, skipped, synth_self_s);
  set_spice_layer(r, spice);
  // An estimate that throws here aborts the run, so none are counted failed.
  set_estimator_layer(r, est_us, 0);
  const double hits = delta("cache_hits"), misses = delta("cache_misses");
  r.set("runtime.cache_hits", hits);
  r.set("runtime.cache_misses", misses);
  r.set("runtime.cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  r.set("runtime.evictions", delta("cache_evictions"));
  r.set("lint.prove_calls", static_cast<double>(prove_us.size()));
  r.set("lint.prove_us", mean(prove_us));
  r.set("lint.pruned_frac", prove_us.empty() ? 0.0 : static_cast<double>(pruned) / prove_us.size());
  r.set("serve.ping_rtt_us", median(ping_us));
  r.set("serve.overhead_ms", median(traced_ms) - median(direct_ms));
  r.set("serve.degraded", delta("degraded"));
  r.set("serve.shed", delta("shed_overload") + delta("shed_quota") + delta("shed_draining"));
  r.set("serve.errors", delta("errors"));
  r.set("serve.peak_in_flight", after.count("peak_in_flight") ? after.at("peak_in_flight") : 0.0);
  set_trace_overhead(r, traced_ms, untraced_ms);
  r.samples["serve.ping"] = static_cast<long>(ping_us.size());
  r.samples["serve.direct_synth"] = static_cast<long>(direct_ms.size());
  return r;
}

}  // namespace apebench
