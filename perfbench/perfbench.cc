// perfbench: the measured half of the repository benchmark.
//
//   perfbench prepare --workload=W --seed=N --dir=D
//       Generates workload W's inputs from seed N into directory D. This is
//       the untimed half: perfbench/run.py caches D per seed.
//   perfbench run --workload=W --seed=N --seconds=T --trace=0|1 --dir=D
//                 --scratch=S
//       Reads the prepared inputs from D, drives the library through its
//       public API, and prints one JSON object of raw measurements (scalar
//       values, sample arrays, exact outputs, spans, gate results) on
//       stdout. run.py turns it into the benchmark's metrics.
//
// Every workload runs the same path, load -> Session::Create -> epochs ->
// publish -> serve -> online rounds, on the synthetic stand-in of one of
// the paper's datasets; the workloads differ only in that input's shape.
//
// Everything here times calls into the library from outside; nothing in
// src/ is instrumented. Spans are recorded only with --trace=1, around
// the same calls the untraced run times, and the standalone per-layer
// probes run after the online rounds so they cannot perturb the path.
//
// Thread budget: at most hardware_concurrency() threads are busy at once.
//   load      loader threads = cores.
//   epochs    the caller + cores-2 RMSE helpers.
//   serve     cores-1 server shards + 1 open-loop generator thread.
//   online    the caller + cores-2 RMSE helpers + the shard answering the
//             query thread, which sleeps between sends at a low fixed rate.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/model.h"
#include "core/session.h"
#include "io/loader.h"
#include "io/writer.h"
#include "obs/json.h"
#include "sched/blocked_matrix.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stream/stream.h"
#include "stream/wal.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hsgd::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---- Workload constants ----------------------------------------------------
// The session seed is fixed so that --seed varies only the inputs. The
// simulated fleet draws its device speeds from the session seed; letting
// that draw vary per input seed would swing virtual epoch times by ~25%.
constexpr uint64_t kSessionSeed = 1;

/// One workload: the synthetic stand-in of one of the paper's datasets,
/// which runs the whole path.
struct Workload {
  const char* name;
  DatasetPreset preset;
  // Share of the published rating count (ScaledPresetSpec).
  double scale;
  // Test RMSE the paper-style time-to-target is measured against. It sits
  // on the steep part of this input's curve (see perfbench/README.md).
  double target_rmse;
  // Serve open-loop rate, well below the batch-of-one knee of cores-1
  // shards, so batches stay near 1 and latency shows the sweep and queue
  // wait rather than batching.
  double open_qps;
};

constexpr Workload kWorkloads[] = {
    {"netflix", DatasetPreset::kNetflix, 0.02, 0.50, 2000.0},
    {"yahoomusic", DatasetPreset::kYahooMusic, 0.004, 12.7, 200.0},
};

constexpr int kSetupReps = 3;
constexpr int kTrainEpochs = 20;

constexpr int kTopK = 10;
constexpr int kServeMaxBatch = 32;

// Online rounds of streamed ratings.
constexpr int kOnlineRounds = 100;
// fresh_p90_s is a nearest-rank p90 over the rounds; it needs at least ten
// rounds beyond it. Every round runs or the program aborts.
static_assert(kOnlineRounds - (9 * kOnlineRounds + 9) / 10 >= 10,
              "too few online rounds for a p90 with ten samples beyond it");
constexpr int64_t kOnlineBatch = 5000;
// Every fifth round also checkpoints, so those rounds are the slowest fifth
// and fresh_p90_s falls among them rather than on the boundary.
constexpr int kCheckpointEvery = 5;
constexpr double kOnlineQps = 400.0;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Cores() {
  return std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
}

// ---- Recorder: raw outputs and outside-in spans ------------------------------

class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing), origin_(Clock::now()) {}

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  bool tracing() const { return tracing_; }

  int Open(const char* name) {
    if (!tracing_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, Now(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end = Now();
    stack_.pop_back();
  }

  void Value(const std::string& name, double v) { values_[name] = v; }
  void Sample(const std::string& name, double v) { samples_[name].push_back(v); }
  void Exact(const std::string& name, double v) { exact_[name] = v; }
  std::vector<double>* Samples(const std::string& name) {
    return &samples_[name];
  }

  // Gate accounting: every checked operation is attempted; a failed check
  // is counted and its first few messages kept.
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed_;
    if (errors_.size() < 20) errors_.push_back(what);
  }

  void Print(FILE* out) const;

 private:
  struct SpanRec {
    std::string name;
    int parent;
    double start;
    double end;
  };

  bool tracing_;
  Clock::time_point origin_;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> exact_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;
};

void Recorder::Print(FILE* out) const {
  auto numbers = [](const std::map<std::string, double>& m) {
    obs::Json o = obs::Json::Object();
    for (const auto& [name, v] : m) o.Set(name, obs::Json::Double(v));
    return o;
  };
  obs::Json samples = obs::Json::Object();
  for (const auto& [name, vs] : samples_) {
    obs::Json a = obs::Json::Array();
    for (double v : vs) a.Push(obs::Json::Double(v));
    samples.Set(name, std::move(a));
  }
  obs::Json spans = obs::Json::Array();
  for (const SpanRec& s : spans_) {
    spans.Push(obs::Json::Array()
                   .Push(obs::Json::Str(s.name))
                   .Push(obs::Json::Int(s.parent))
                   .Push(obs::Json::Double(s.start))
                   .Push(obs::Json::Double(s.end)));
  }
  obs::Json errors = obs::Json::Array();
  for (const std::string& e : errors_) errors.Push(obs::Json::Str(e));
  obs::Json doc = obs::Json::Object();
  doc.Set("values", numbers(values_));
  doc.Set("exact", numbers(exact_));
  doc.Set("samples", std::move(samples));
  doc.Set("spans", std::move(spans));
  doc.Set("attempted", obs::Json::Int(attempted_));
  doc.Set("failed", obs::Json::Int(failed_));
  doc.Set("errors", std::move(errors));
  std::fprintf(out, "%s\n", doc.Dump(0).c_str());
}

/// Times one region; with tracing on it is also a span, nested under the
/// span open when it starts. Seconds() stops it at the first call.
class Span {
 public:
  Span(Recorder* rec, const char* name)
      : rec_(rec), start_(rec->Now()), index_(rec->Open(name)) {}
  ~Span() { Seconds(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double Seconds() {
    if (!stopped_) {
      elapsed_ = rec_->Now() - start_;
      rec_->Close(index_);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  Recorder* rec_;
  double start_;
  int index_;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

// ---- Process memory --------------------------------------------------------

double RssMb() {
  long pages_total = 0, pages_resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(f);
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

// ---- Binary input files ------------------------------------------------------

class BinFile {
 public:
  BinFile(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)), path_(path) {
    HSGD_CHECK(f_ != nullptr) << "cannot open " << path;
  }
  ~BinFile() { std::fclose(f_); }
  BinFile(const BinFile&) = delete;
  BinFile& operator=(const BinFile&) = delete;

  template <typename T>
  void Put(const T& v) { PutArray(&v, 1); }
  template <typename T>
  void PutArray(const T* data, size_t n) {
    HSGD_CHECK(std::fwrite(data, sizeof(T), n, f_) == n)
        << "short write to " << path_;
  }
  template <typename T>
  T Get() {
    T v{};
    GetArray(&v, 1);
    return v;
  }
  template <typename T>
  void GetArray(T* data, size_t n) {
    HSGD_CHECK(std::fread(data, sizeof(T), n, f_) == n)
        << "short read from " << path_;
  }
  template <typename T>
  std::vector<T> GetVector() {
    const int64_t n = Get<int64_t>();
    HSGD_CHECK(n >= 0 && n < (int64_t{1} << 34)) << "bad length in " << path_;
    std::vector<T> v(static_cast<size_t>(n));
    GetArray(v.data(), v.size());
    return v;
  }
  template <typename T>
  void PutVector(const std::vector<T>& v) {
    Put<int64_t>(static_cast<int64_t>(v.size()));
    PutArray(v.data(), v.size());
  }

 private:
  FILE* f_;
  std::string path_;
};

// ---- Shared helpers ------------------------------------------------------------

SyntheticSpec InputSpec(const Workload& w) {
  return ScaledPresetSpec(w.preset, w.scale);
}

io::LoadOptions MakeLoadOptions(const Workload& w) {
  const SyntheticSpec spec = InputSpec(w);
  io::LoadOptions lo;
  lo.threads = Cores();
  lo.min_rating = spec.rating_min;
  lo.max_rating = spec.rating_max;
  return lo;
}

TrainConfig MakeTrainConfig(int eval_threads) {
  TrainConfig cfg;  // the paper's fleet: 16 simulated CPU threads + 1 GPU
  cfg.algorithm = Algorithm::kHsgdStar;
  // The budget covers the full epochs and one incremental epoch per round.
  cfg.max_epochs = kTrainEpochs + kOnlineRounds;
  cfg.seed = kSessionSeed;
  cfg.use_dataset_target = false;
  cfg.eval_threads = eval_threads;
  return cfg;
}

/// The same division Session::Create makes for HSGD* on its default fleet
/// (16 CPU threads, 1 GPU, 2 stripes per GPU), rebuilt standalone so the
/// grid and bucketing layers can be timed on their own. The library does
/// not expose it, so ProbeTrainingLayers checks that the copy still yields
/// as many non-empty blocks as the session schedules per epoch.
StatusOr<Grid> StarGrid(const Ratings& ratings, int32_t rows, int32_t cols,
                        double alpha) {
  const int nc = 16, ng = 1, stripes_per_gpu = 2;
  const int64_t n = static_cast<int64_t>(ratings.size());
  const int gpu_stripes = stripes_per_gpu * ng;
  const int cpu_stripes =
      nc + static_cast<int>(std::min<int64_t>(std::max(2, nc),
                                              cols - gpu_stripes - nc));
  const int64_t p_by_size = n / ((gpu_stripes + cpu_stripes) * int64_t{600});
  const int p = static_cast<int>(std::min<int64_t>(
      rows, std::max<int64_t>(std::min<int64_t>(2 * (nc + ng), p_by_size),
                              nc + ng + 2)));
  std::vector<double> shares;
  for (int g = 0; g < gpu_stripes; ++g) shares.push_back(alpha / gpu_stripes);
  for (int t = 0; t < cpu_stripes; ++t) {
    shares.push_back((1.0 - alpha) / cpu_stripes);
  }
  return BuildGridWithColShares(ratings, rows, cols, p, shares);
}

/// The session's shape when it was created, before the online rounds grew
/// it: its training ratings are the first `train` of the grown set.
struct WarmShape {
  int64_t train = 0;
  int32_t rows = 0;
  int32_t cols = 0;
};

/// Standalone probes of the bucketing, SGD and RMSE layers on the ratings
/// the session was created with. `blocks_per_epoch` is the number of block
/// tasks one full epoch of the session ran.
void ProbeTrainingLayers(Recorder* rec, const Session& session,
                         const WarmShape& warm, int eval_threads,
                         int64_t blocks_per_epoch) {
  const Dataset& ds = session.dataset();
  const Ratings train(ds.train.begin(), ds.train.begin() + warm.train);
  Grid grid;
  {
    Span s(rec, "sched.grid");
    auto g = StarGrid(train, warm.rows, warm.cols, session.planned_alpha());
    HSGD_CHECK_OK(g.status());
    grid = *std::move(g);
    rec->Value("sched.grid_s", s.Seconds());
  }
  BlockedMatrix matrix;
  {
    Rng shuffle(kSessionSeed, 2);
    Span s(rec, "sched.bucket");
    auto m = BlockedMatrix::Build(train, grid, &shuffle);
    HSGD_CHECK_OK(m.status());
    matrix = *std::move(m);
    rec->Value("sched.bucket_s", s.Seconds());
  }
  // The scheduler runs every block that holds ratings once per epoch.
  int64_t nonempty = 0;
  for (int b = 0; b < matrix.num_blocks(); ++b) nonempty += matrix.BlockNnz(b) > 0;
  rec->Attempt();
  rec->Check(nonempty == blocks_per_epoch,
             "StarGrid built " + std::to_string(nonempty) +
                 " non-empty blocks but the session runs " +
                 std::to_string(blocks_per_epoch) +
                 " per epoch: its copy of the HSGD* division has drifted");
  {
    Model model(warm.rows, warm.cols, ds.params.k);
    Rng init(kSessionSeed, 1);
    model.InitRandom(&init, ComputeStats(train).mean_rating);
    const SgdHyper hyper{ds.params.learning_rate, ds.params.lambda_p,
                         ds.params.lambda_q};
    double sse = 0.0;
    Span s(rec, "core.sgd_sweep");
    for (int b = 0; b < matrix.num_blocks(); ++b) {
      sse += SgdUpdateBlock(&model, matrix.BlockRatings(b), hyper);
    }
    const double secs = s.Seconds();
    rec->Check(std::isfinite(sse), "standalone SGD sweep produced non-finite SSE");
    rec->Value("core.sgd_sweep_s", secs);
    rec->Value("core.sgd_updates_per_s",
               static_cast<double>(matrix.total_nnz()) / secs);
  }
  ThreadPool pool(static_cast<size_t>(eval_threads));
  const struct {
    const char* span;
    const char* metric;
    const Ratings& ratings;
  } passes[] = {{"core.rmse_train", "core.rmse_train_s", train},
                {"core.rmse_test", "core.rmse_test_s", ds.test}};
  for (const auto& pass : passes) {
    for (int i = 0; i < 3; ++i) {
      Span s(rec, pass.span);
      const double rmse = Rmse(session.model(), pass.ratings, &pool);
      rec->Sample(pass.metric, s.Seconds());
      rec->Check(std::isfinite(rmse), "standalone RMSE is not finite");
    }
  }
}

/// Serving invariants for one response: version inside the published
/// window, at most k items, finite scores sorted descending with ties by
/// ascending item id.
bool ResponseIntact(const serve::TopKResponse& r, uint64_t max_version) {
  if (r.snapshot_version < 1 || r.snapshot_version > max_version) return false;
  if (r.items.size() > static_cast<size_t>(kTopK)) return false;
  for (size_t i = 0; i < r.items.size(); ++i) {
    if (!std::isfinite(r.items[i].score)) return false;
    if (i == 0) continue;
    const ScoredItem& a = r.items[i - 1];
    const ScoredItem& b = r.items[i];
    if (!(a.score > b.score || (a.score == b.score && a.item < b.item))) {
      return false;
    }
  }
  return true;
}

/// Open-loop load: requests are due on a fixed schedule and each is timed
/// from its due time, so a stall charges every request it delays. The
/// generator sleeps between sends rather than spinning, so it does not
/// take a core from the shards; a 1 ns timer slack keeps its wake-ups
/// within microseconds of the due time instead of the default 50 us.
struct OpenLoopResult {
  std::vector<double> due_s;    // due time, relative to the phase start
  std::vector<double> lat_ms;   // completion - due
  std::vector<double> late_ms;  // submit - due
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

OpenLoopResult RunOpenLoop(serve::RecServer* server, double qps,
                           double seconds, uint64_t seed, int32_t users,
                           bool raw,
                           const std::atomic<uint64_t>* max_version,
                           const std::atomic<bool>* stop) {
  OpenLoopResult out;
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Rng rng(seed, 71);
  struct InFlight {
    std::future<StatusOr<serve::TopKResponse>> future;
    double due_s;
    double late_s;
  };
  std::deque<InFlight> inflight;
  auto harvest = [&](InFlight& f) {
    auto r = f.future.get();
    ++out.attempted;
    if (r.ok() && ResponseIntact(*r, max_version->load())) {
      ++out.ok;
      out.due_s.push_back(f.due_s);
      out.lat_ms.push_back((f.late_s + r->latency_s) * 1e3);
      out.late_ms.push_back(f.late_s * 1e3);
    } else {
      ++out.failed;
    }
  };
  const Clock::time_point start = Clock::now();
  const double period = 1.0 / qps;
  for (int64_t i = 0;; ++i) {
    const double due = static_cast<double>(i) * period;
    if (due >= seconds || (stop != nullptr && stop->load())) break;
    const Clock::time_point due_tp =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due));
    std::this_thread::sleep_until(due_tp);
    serve::TopKRequest req;
    req.user = rng.UniformInt(users);
    req.raw = raw;
    req.k = kTopK;
    const double late =
        std::chrono::duration<double>(Clock::now() - due_tp).count();
    inflight.push_back({server->Submit(req), due, late});
    while (!inflight.empty() &&
           inflight.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      harvest(inflight.front());
      inflight.pop_front();
    }
  }
  for (auto& f : inflight) harvest(f);
  return out;
}

void RecordOpenLoop(Recorder* rec, const OpenLoopResult& r,
                    const std::string& prefix) {
  *rec->Samples(prefix + "due_s") = r.due_s;
  *rec->Samples(prefix + "lat_ms") = r.lat_ms;
  *rec->Samples(prefix + "late_ms") = r.late_ms;
  rec->Value(prefix + "attempted", static_cast<double>(r.attempted));
  rec->Value(prefix + "ok", static_cast<double>(r.ok));
  rec->Attempt(r.attempted);
  for (int64_t i = 0; i < r.failed; ++i) {
    rec->Check(false, "open-loop query failed or returned a torn response");
  }
}

// ---- Inputs ------------------------------------------------------------------

/// Writes the workload's ratings as a duplicate-free MovieLens `::` file,
/// user-major as real MovieLens dumps come, plus the streamed rounds.
void Prepare(const Workload& w, uint64_t seed, const std::string& dir) {
  const SyntheticSpec spec = InputSpec(w);
  auto ds = GenerateSynthetic(spec, seed);
  HSGD_CHECK_OK(ds.status());
  Ratings all = std::move(ds->train);
  all.insert(all.end(), ds->test.begin(), ds->test.end());
  // The strict loader rejects duplicate (user, item) pairs, which the
  // generator emits: keep one of each.
  const auto user_major = [](const Rating& a, const Rating& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::stable_sort(all.begin(), all.end(), user_major);
  Ratings unique;
  unique.reserve(all.size());
  for (const Rating& r : all) {
    if (unique.empty() || unique.back().u != r.u || unique.back().v != r.v) {
      unique.push_back(r);
    }
  }
  all = Ratings();
  // Relabel users and items in order of first appearance, so the loader's
  // raw -> dense remap is the identity and the online rounds can use
  // identity id maps. A user's unseen items take the next labels in the
  // order they appear, so re-sorting each user's items by label keeps the
  // first appearances ascending.
  std::vector<int32_t> user_label(static_cast<size_t>(spec.num_rows), -1);
  std::vector<int32_t> item_label(static_cast<size_t>(spec.num_cols), -1);
  int32_t users = 0, items = 0;
  for (Rating& r : unique) {
    int32_t& u = user_label[static_cast<size_t>(r.u)];
    int32_t& v = item_label[static_cast<size_t>(r.v)];
    if (u < 0) u = users++;
    if (v < 0) v = items++;
    r.u = u;
    r.v = v;
  }
  std::sort(unique.begin(), unique.end(), user_major);
  const std::string path = dir + "/ratings.dat";
  HSGD_CHECK_OK(io::WriteMovieLens(path, unique));
  {
    auto loaded = io::LoadRatings(path, io::DataFormat::kMovieLens,
                                  MakeLoadOptions(w));
    HSGD_CHECK_OK(loaded.status());
    bool identity = loaded->users.size() == users && loaded->items.size() == items;
    for (int32_t i = 0; identity && i < users; ++i) {
      identity = loaded->users.Raw(i) == i;
    }
    for (int32_t i = 0; identity && i < items; ++i) {
      identity = loaded->items.Raw(i) == i;
    }
    HSGD_CHECK(identity) << "the loader does not map " << path
                         << " onto its own ids";
  }

  stream::SyntheticStreamSpec ss;
  ss.warm_users = users;
  ss.warm_items = items;
  // Low cold rates keep the catalog close to its warm size over the run
  // (tens of new users and about one new item per round) while every
  // round still introduces cold ids to probe.
  ss.cold_user_rate = 0.001;
  ss.cold_item_rate = 0.00005;
  ss.min_rating = static_cast<float>(spec.rating_min);
  ss.max_rating = static_cast<float>(spec.rating_max);
  ss.seed = seed;
  stream::SyntheticStream gen(ss);
  std::vector<int64_t> raw_users, raw_items;
  std::vector<float> ratings;
  for (int r = 0; r < kOnlineRounds; ++r) {
    for (const io::RawRating& x : gen.NextBatch(kOnlineBatch)) {
      raw_users.push_back(x.user);
      raw_items.push_back(x.item);
      ratings.push_back(x.rating);
    }
  }
  BinFile f(dir + "/stream.bin", "wb");
  f.Put<int32_t>(users);
  f.Put<int32_t>(items);
  f.PutVector(raw_users);
  f.PutVector(raw_items);
  f.PutVector(ratings);
}

using Rounds = std::vector<std::vector<io::RawRating>>;

Rounds ReadRounds(const std::string& dir, int32_t* rows, int32_t* cols) {
  BinFile f(dir + "/stream.bin", "rb");
  *rows = f.Get<int32_t>();
  *cols = f.Get<int32_t>();
  const std::vector<int64_t> users = f.GetVector<int64_t>();
  const std::vector<int64_t> items = f.GetVector<int64_t>();
  const std::vector<float> ratings = f.GetVector<float>();
  HSGD_CHECK(users.size() == static_cast<size_t>(kOnlineRounds * kOnlineBatch) &&
             items.size() == users.size() && ratings.size() == users.size())
      << "stream.bin holds the wrong number of streamed ratings";
  Rounds rounds;
  for (size_t i = 0; i < users.size(); ++i) {
    if (i % kOnlineBatch == 0) rounds.emplace_back();
    rounds.back().push_back({users[i], items[i], ratings[i]});
  }
  return rounds;
}

// ---- The path ----------------------------------------------------------------

/// Set-up: LoadDataset + Session::Create, repeated; setup_s is the median.
std::unique_ptr<Session> Setup(Recorder* rec, const Workload& w,
                               const std::string& dir, int eval_threads) {
  io::DatasetOptions dopt;
  dopt.test_fraction = 0.1;
  dopt.params = InputSpec(w).params;
  dopt.target_rmse = w.target_rmse;
  const double rss0 = RssMb();
  std::unique_ptr<Session> session;
  Span setup_all(rec, "setup");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    Span setup(rec, "setup.rep");
    Dataset ds;
    {
      Span s(rec, "io.load");
      auto loaded = io::LoadDataset(dir + "/ratings.dat",
                                    io::DataFormat::kMovieLens,
                                    MakeLoadOptions(w), dopt);
      HSGD_CHECK_OK(loaded.status());
      ds = *std::move(loaded);
      rec->Sample("io.load_s", s.Seconds());
    }
    // Memory is attributed on the first repetition, before the allocator
    // holds on to pages from earlier ones.
    if (rep == 0) {
      rec->Value("io.load_rss_mb", PeakRssMb() - rss0);
      rec->Value("rss.after_load_mb", RssMb());
    }
    const double rss_before_create = RssMb();
    {
      Span s(rec, "session.create");
      auto created = Session::Create(std::move(ds), MakeTrainConfig(eval_threads));
      HSGD_CHECK_OK(created.status());
      session = *std::move(created);
      rec->Sample("session.create_s", s.Seconds());
    }
    if (rep == 0) {
      rec->Value("session.create_rss_delta_mb", RssMb() - rss_before_create);
      rec->Value("rss.after_create_mb", RssMb());
    }
    rec->Sample("setup_s", setup.Seconds());
  }
  rec->Attempt(2 * kSetupReps);  // loads + creates
  return session;
}

/// A fixed budget of full epochs. Returns the block tasks of one epoch.
int64_t Train(Recorder* rec, const Workload& w, Session* session) {
  double train_s = 0.0;
  int epochs_to_target = 0;
  double sim_to_target = 0.0;
  double test_rmse = 0.0;
  int64_t blocks_per_epoch = 0;
  {
    Span train(rec, "train");
    for (int e = 1; e <= kTrainEpochs; ++e) {
      const int64_t tasks0 = session->stats().sim.block_tasks;
      Span s(rec, "session.epoch");
      auto point = session->RunEpoch();
      const double secs = s.Seconds();
      blocks_per_epoch = session->stats().sim.block_tasks - tasks0;
      rec->Attempt();
      rec->Check(point.ok(), "RunEpoch failed: " + point.status().ToString());
      if (!point.ok()) break;
      train_s += secs;
      rec->Sample("session.epoch_s", secs);
      rec->Sample("session.epoch_test_rmse", point->test_rmse);
      rec->Check(std::isfinite(point->test_rmse) &&
                     std::isfinite(point->train_rmse),
                 "epoch RMSE is not finite");
      test_rmse = point->test_rmse;
      if (epochs_to_target == 0 && point->test_rmse <= w.target_rmse) {
        epochs_to_target = e;
        sim_to_target = point->time;
      }
    }
  }
  rec->Check(epochs_to_target > 0, "test RMSE never met the benchmark target");
  rec->Value("train_s", train_s);
  rec->Value("rss.after_train_mb", RssMb());

  const SimStats sim = session->stats().sim;
  rec->Exact("test_rmse", test_rmse);
  rec->Exact("sim_s_to_target", sim_to_target);
  rec->Exact("sim.epochs_to_target", epochs_to_target);
  rec->Exact("sched.steals",
             static_cast<double>(sim.stolen_by_gpus + sim.stolen_by_cpus));
  rec->Exact("sim.alpha", sim.alpha);
  rec->Exact("sim.update_rate_cv", sim.update_rate_cv);
  rec->Exact("sim.block_tasks", static_cast<double>(sim.block_tasks));
  return blocks_per_epoch;
}

/// The exact serving output: a digest of the top-k lists of a fixed user
/// set; the batched sweep must agree bit for bit with one-at-a-time sweeps.
void CheckTopK(Recorder* rec, const serve::FactorSnapshot& snapshot,
               int32_t users) {
  std::vector<serve::TopKQuery> queries;
  for (int32_t u = 0; u < kServeMaxBatch; ++u) {
    queries.push_back({u * (users / kServeMaxBatch), kTopK});
  }
  auto batch = serve::BatchTopK(snapshot, queries.data(), queries.size());
  uint32_t digest = 2166136261u;
  bool agree = batch.size() == queries.size();
  for (size_t i = 0; agree && i < queries.size(); ++i) {
    auto single = serve::BatchTopK(snapshot, &queries[i], 1);
    agree = batch[i].ok() && single[0].ok() &&
            batch[i]->size() == single[0]->size();
    for (size_t j = 0; agree && j < batch[i]->size(); ++j) {
      const ScoredItem& a = (*batch[i])[j];
      const ScoredItem& b = (*single[0])[j];
      agree = a.item == b.item &&
              std::memcmp(&a.score, &b.score, sizeof(float)) == 0;
      uint32_t bits = 0;
      std::memcpy(&bits, &a.score, sizeof(bits));
      for (uint32_t word : {static_cast<uint32_t>(a.item), bits}) {
        digest = (digest ^ word) * 16777619u;
      }
    }
  }
  rec->Attempt();
  rec->Check(agree, "batched top-k differs from one-at-a-time top-k");
  rec->Exact("serve.topk_digest", static_cast<double>(digest));
}

/// Reads only: the open loop at the workload's fixed rate for `seconds`,
/// then saturation for `seconds`.
void Serve(Recorder* rec, const Workload& w, serve::RecServer* server,
           int shards, int32_t users, double seconds, uint64_t seed) {
  const std::atomic<uint64_t> max_version{1};
  rec->Value("open.qps", w.open_qps);
  serve::ServeCounters c0 = server->counters();
  {
    Span s(rec, "serve.open_loop");
    OpenLoopResult r = RunOpenLoop(server, w.open_qps, seconds, seed, users,
                                   /*raw=*/false, &max_version, nullptr);
    RecordOpenLoop(rec, r, "open.");
  }
  serve::ServeCounters c1 = server->counters();
  rec->Value("open.batches", static_cast<double>(c1.batches - c0.batches));
  rec->Value("open.served", static_cast<double>(c1.ok - c0.ok));

  // Saturation: one generator keeps a fixed window outstanding, two full
  // batches per shard, so micro-batching has work to merge. Throughput is
  // the median over one-second windows, so a short host stall moves one
  // window, not the result.
  {
    Span s(rec, "serve.saturation");
    const int window = 2 * kServeMaxBatch * shards;
    Rng rng(seed, 73);
    std::deque<std::future<StatusOr<serve::TopKResponse>>> inflight;
    auto submit = [&] {
      serve::TopKRequest req;
      req.user = rng.UniformInt(users);
      req.k = kTopK;
      inflight.push_back(server->Submit(req));
    };
    int64_t attempted = 0, ok = 0, in_window = 0;
    const double t0 = rec->Now();
    double window_end = t0 + 1.0;
    while (static_cast<int>(inflight.size()) < window) submit();
    while (!inflight.empty()) {
      auto r = inflight.front().get();
      inflight.pop_front();
      ++attempted;
      const bool good = r.ok() && ResponseIntact(*r, 1);
      ok += good;
      in_window += good;
      rec->Check(good, "saturation query failed or returned a torn response");
      const double now = rec->Now();
      if (now >= window_end) {
        rec->Sample("sat.window_qps", static_cast<double>(in_window));
        in_window = 0;
        window_end += 1.0;
      }
      if (now - t0 < seconds) submit();
    }
    rec->Attempt(attempted);
    rec->Value("sat.attempted", static_cast<double>(attempted));
    rec->Value("sat.ok", static_cast<double>(ok));
  }
  serve::ServeCounters c2 = server->counters();
  rec->Value("sat.batches", static_cast<double>(c2.batches - c1.batches));
  rec->Value("sat.served", static_cast<double>(c2.ok - c1.ok));
}

/// Writes beside reads: closed-loop rounds of Ingest (WAL, fsync per
/// append) -> TrainDirty -> (every few rounds) Checkpoint -> publish, while
/// a query thread sends raw-id queries for warm users at a low fixed rate.
void Online(Recorder* rec, stream::OnlineTrainer* trainer,
            serve::RecServer* server, std::atomic<uint64_t>* max_version,
            const Rounds& rounds, int32_t warm_users, int64_t blocks,
            const std::string& scratch, uint64_t seed) {
  std::atomic<bool> stop{false};
  OpenLoopResult queries;
  std::thread query_thread([&] {
    queries = RunOpenLoop(server, kOnlineQps,
                          std::numeric_limits<double>::infinity(), seed,
                          warm_users, /*raw=*/true, max_version, &stop);
  });

  const std::string ckpt = scratch + "/online.ckpt";
  double last_rmse = 0.0;
  {
    Span loop(rec, "rounds");
    for (int r = 0; r < kOnlineRounds; ++r) {
      const std::vector<io::RawRating>& batch = rounds[static_cast<size_t>(r)];
      const int32_t known_users = trainer->users().size();
      int64_t cold_user = -1;
      for (const io::RawRating& x : batch) {
        if (x.user >= known_users) {
          cold_user = x.user;
          break;
        }
      }
      rec->Attempt();
      Span round(rec, "round");
      {
        Span s(rec, "stream.ingest");
        auto ingested = trainer->Ingest(batch);
        HSGD_CHECK_OK(ingested.status());
        rec->Sample("stream.ingest_s", s.Seconds());
      }
      rec->Sample("stream.dirty_block_ratio",
                  static_cast<double>(trainer->session().pending_dirty_blocks()) /
                      static_cast<double>(blocks));
      {
        Span s(rec, "stream.train_dirty");
        auto point = trainer->TrainDirty();
        HSGD_CHECK_OK(point.status());
        rec->Sample("stream.train_dirty_s", s.Seconds());
        last_rmse = point->test_rmse;
        rec->Check(std::isfinite(point->test_rmse), "incremental RMSE is not finite");
      }
      if ((r + 1) % kCheckpointEvery == 0) {
        Span s(rec, "stream.checkpoint");
        HSGD_CHECK_OK(trainer->Checkpoint(ckpt));
        rec->Sample("stream.checkpoint_s", s.Seconds());
      }
      // Cold-start visibility: a streamed raw id stays NotFound until the
      // publish whose snapshot covers it.
      if (cold_user >= 0) {
        rec->Attempt();
        auto before = server->Query({cold_user, /*raw=*/true, kTopK});
        rec->Check(!before.ok() && before.status().code() == StatusCode::kNotFound,
                   "cold user visible before the publish covering it");
      }
      {
        Span s(rec, "stream.publish");
        auto published = trainer->PublishSnapshot();
        HSGD_CHECK_OK(published.status());
        rec->Sample("stream.publish_s", s.Seconds());
      }
      rec->Sample("fresh_s", round.Seconds());
      if (cold_user >= 0) {
        rec->Attempt();
        auto after = server->Query({cold_user, /*raw=*/true, kTopK});
        rec->Check(after.ok() && ResponseIntact(*after, max_version->load()),
                   "cold user not servable after the publish covering it");
      }
    }
  }
  stop.store(true);
  query_thread.join();
  RecordOpenLoop(rec, queries, "live.");
  rec->Check(std::isfinite(last_rmse), "final RMSE is not finite");
  rec->Exact("online.final_test_rmse", last_rmse);
  rec->Exact("online.version", static_cast<double>(trainer->version()));
}

/// Standalone probes of the serving and stream layers (traced runs only).
void ProbeServeAndStream(Recorder* rec, const serve::FactorSnapshot& snapshot,
                         int32_t users, stream::OnlineTrainer* trainer,
                         const Rounds& rounds, const std::string& scratch,
                         uint64_t seed) {
  Rng rng(seed, 79);
  std::vector<float> scores;
  for (int n : {1, kServeMaxBatch}) {
    for (int rep = 0; rep < (n == 1 ? 400 : 60); ++rep) {
      std::vector<serve::TopKQuery> queries;
      for (int i = 0; i < n; ++i) {
        queries.push_back({static_cast<int32_t>(rng.UniformInt(users)), kTopK});
      }
      Span s(rec, n == 1 ? "serve.sweep_single" : "serve.sweep_batch");
      auto out = serve::BatchTopK(snapshot, queries.data(), queries.size(),
                                  nullptr, &scores);
      rec->Sample(n == 1 ? "serve.sweep_single_ms" : "serve.sweep_batch_ms",
                  s.Seconds() * 1e3);
    }
  }
  // WAL append and fsync are both inside Ingest; a second log in its own
  // directory, synced by hand, times them apart on the same batches.
  {
    stream::WalOptions wo;
    wo.dir = scratch + "/wal-probe";
    wo.fsync_every = 0;
    auto wal = stream::Wal::Open(wo);
    HSGD_CHECK_OK(wal.status());
    for (int r = 0; r < 20; ++r) {
      {
        Span s(rec, "stream.wal_append");
        HSGD_CHECK_OK((*wal)->Append(rounds[static_cast<size_t>(r)]).status());
        rec->Sample("stream.wal_append_s", s.Seconds());
      }
      Span s(rec, "stream.wal_sync");
      HSGD_CHECK_OK((*wal)->Sync());
      rec->Sample("stream.wal_sync_s", s.Seconds());
    }
  }
  for (int i = 0; i < 3; ++i) {
    Span s(rec, "serve.snapshot_build");
    auto snap = serve::FactorSnapshot::FromSession(trainer->session(), 1);
    HSGD_CHECK_OK(snap.status());
    rec->Sample("serve.snapshot_build_s", s.Seconds());
  }
}

void Run(Recorder* rec, const Workload& w, const std::string& dir,
         const std::string& scratch, double seconds, uint64_t seed) {
  const int cores = Cores();
  const int eval_threads = std::max(1, cores - 2);
  WarmShape warm;
  const Rounds rounds = ReadRounds(dir, &warm.rows, &warm.cols);

  std::unique_ptr<Session> session = Setup(rec, w, dir, eval_threads);
  HSGD_CHECK(session->dataset().num_rows == warm.rows &&
             session->dataset().num_cols == warm.cols)
      << "the loaded ratings and the prepared stream disagree on the shape";
  warm.train = session->dataset().train_size();
  const int64_t blocks = Train(rec, w, session.get());

  // Publish the trained factors into a fresh server through the online
  // trainer that will run the rounds.
  serve::ServeConfig cfg;
  cfg.shards = cores - 1;
  cfg.max_batch = kServeMaxBatch;
  cfg.max_queue = 4096;
  std::atomic<uint64_t> max_version{0};
  std::unique_ptr<serve::RecServer> server;
  std::unique_ptr<stream::OnlineTrainer> trainer;
  serve::SnapshotPtr snapshot;
  {
    Span publish(rec, "serve.setup");
    {
      Span s(rec, "serve.create");
      auto created = serve::RecServer::Create(cfg, nullptr);
      HSGD_CHECK_OK(created.status());
      server = *std::move(created);
    }
    stream::OnlineTrainer::WalIngestOptions wal;
    wal.wal.dir = scratch + "/wal";
    wal.wal.fsync_every = 1;
    serve::RecServer* srv = server.get();
    {
      Span s(rec, "stream.create");
      auto created = stream::OnlineTrainer::Create(
          std::move(session), stream::DenseIdentityMap(warm.rows),
          stream::DenseIdentityMap(warm.cols),
          [srv, &max_version](serve::SnapshotPtr snap) {
            // Widen the accepted window before the snapshot goes live.
            max_version.store(snap->version());
            return srv->Publish(std::move(snap));
          },
          nullptr, &wal);
      HSGD_CHECK_OK(created.status());
      trainer = *std::move(created);
    }
    {
      Span s(rec, "serve.first_publish");
      auto published = trainer->PublishSnapshot();
      HSGD_CHECK_OK(published.status());
      snapshot = *published;
    }
    rec->Value("serve.setup_s", publish.Seconds());
  }
  rec->Attempt();
  rec->Value("rss.after_publish_mb", RssMb());

  CheckTopK(rec, *snapshot, warm.rows);
  Serve(rec, w, server.get(), cfg.shards, warm.rows, seconds, seed);
  Online(rec, trainer.get(), server.get(), &max_version, rounds, warm.rows,
         blocks, scratch, seed);

  const serve::ServeCounters c = server->counters();
  rec->Value("serve.publishes", static_cast<double>(c.publishes));
  rec->Value("serve.publish_rejected", static_cast<double>(c.publish_rejected));
  rec->Value("serve.shed", static_cast<double>(c.shed_deadline));
  rec->Value("serve.rejected",
             static_cast<double>(c.rejected + c.breaker_rejected +
                                 c.predictive_rejected));
  rec->Value("rss.after_rounds_mb", RssMb());
  rec->Value("peak_rss_mb", PeakRssMb());

  if (rec->tracing()) {
    Span layers(rec, "layers");
    ProbeServeAndStream(rec, *snapshot, warm.rows, trainer.get(), rounds,
                        scratch, seed);
    ProbeTrainingLayers(rec, trainer->session(), warm, eval_threads, blocks);
  }
  server->Shutdown();
}

// ---- Tracing cost ------------------------------------------------------------

/// Cost of recording one span, measured on a throwaway recorder.
double PerSpanSeconds() {
  Recorder probe(/*tracing=*/true);
  constexpr int kSpans = 100000;
  const double t0 = probe.Now();
  for (int i = 0; i < kSpans; ++i) {
    Span s(&probe, "probe");
  }
  return (probe.Now() - t0) / kSpans;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench prepare|run --workload=W --seed=N "
                         "--dir=D [--seconds=T --trace=0|1 --scratch=S]\n");
    return 2;
  }
  const std::string mode = argv[1];
  CliFlags flags;
  const Status parsed = flags.Parse(
      argc - 1, argv + 1,
      {{"workload", "W", "netflix | yahoomusic"},
       {"seed", "N", "input seed"},
       {"dir", "D", "prepared-input directory"},
       {"seconds", "T", "length of each serving phase"},
       {"trace", "0|1", "record spans and probe single layers"},
       {"scratch", "S", "directory for the WAL and checkpoints"}});
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.ToString().c_str());
    return 2;
  }
  const std::string name = flags.GetString("workload", "");
  const Workload* workload = FindWorkload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "perfbench: --dir is required\n");
    return 2;
  }
  if (mode == "prepare") {
    Prepare(*workload, seed, dir);
    return 0;
  }
  if (mode != "run") {
    std::fprintf(stderr, "perfbench: unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  const std::string scratch = flags.GetString("scratch", "");
  if (scratch.empty()) {
    std::fprintf(stderr, "perfbench: --scratch is required\n");
    return 2;
  }
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool tracing = flags.GetInt("trace", 0) != 0;
  Recorder rec(tracing);
  Run(&rec, *workload, dir, scratch, seconds, seed);
  rec.Value("run.wall_s", rec.Now());
  if (tracing) rec.Value("trace.per_span_s", PerSpanSeconds());
  rec.Print(stdout);
  return 0;
}

}  // namespace
}  // namespace hsgd::perfbench

int main(int argc, char** argv) { return hsgd::perfbench::Main(argc, argv); }
