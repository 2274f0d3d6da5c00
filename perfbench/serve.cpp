// Workload `serve`: the operator's daemon under ingest, queries and
// monitoring, driven over loopback from this process.
//
//   `tsufail serve --port 0 --data-dir <dir> --reorder-hours 0` runs as a
//   child process.  256 tenants each replay a seeded Tsubame-3-model log,
//   sealed three times (every seal persists a segment).  Three closed-loop
//   clients share the daemon:
//     ingest   one connection, EVENT rows then SEAL per chunk, at most
//              kSealWindow chunks in flight;
//     query    after each seal, QUERY twice with one key (a miss, then a
//              cache hit), the key rotating through KEYS incl. `study`;
//     scraper  a fresh connection per GET /metrics or /healthz.
//   Then the daemon is stopped and restarted on the same data dir without
//   its query cache, each restart timed until the first query succeeds,
//   and `study` is scanned over every restored tenant twice per restart;
//   each answer must equal render_study_text(run_study(log)) of that
//   tenant's log.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <semaphore>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>

#include "analysis/query.h"
#include "analysis/study.h"
#include "data/log_index.h"
#include "data/log_io.h"
#include "data/machine.h"
#include "report/study_text.h"
#include "serve/service.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tsufail;
namespace fs = std::filesystem;

constexpr double kStartTimeoutS = 60.0;
constexpr double kStopTimeoutS = 10.0;
constexpr time_t kIoTimeoutS = 30;
constexpr auto kScrapePause = std::chrono::milliseconds(5);
/// Chunks (EVENT rows + SEAL) the ingest client keeps in flight.
constexpr std::ptrdiff_t kSealWindow = 16;

/// `tsufail serve` as a child process, stopped (SIGTERM, then waited
/// for) on destruction.
class Daemon {
 public:
  /// `cache_capacity` is the daemon's --cache-capacity (0 = no query cache).
  Daemon(const std::string& binary, const std::string& data_dir,
         const std::string& cache_capacity = "256") {
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive perfbench
      dup2(pipe_fds[1], STDOUT_FILENO);
      close(pipe_fds[0]);
      close(pipe_fds[1]);
      execl(binary.c_str(), binary.c_str(), "serve", "--port", "0", "--data-dir",
            data_dir.c_str(), "--reorder-hours", "0", "--cache-capacity",
            cache_capacity.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    close(pipe_fds[1]);
    out_fd_ = pipe_fds[0];
    port_ = read_port();
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }

  /// SIGTERM, then SIGKILL if the daemon has not exited within kStopTimeoutS.
  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      const double deadline = now_s() + kStopTimeoutS;
      int status = 0;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (now_s() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

 private:
  /// Reads the daemon's stdout up to "listening on <host>:<port>".
  int read_port() {
    std::string seen;
    const double deadline = now_s() + kStartTimeoutS;
    while (now_s() < deadline) {
      const std::size_t at = seen.find("listening on ");
      const std::size_t eol = at == std::string::npos ? at : seen.find('\n', at);
      if (eol != std::string::npos) {
        const std::string address = seen.substr(at, eol - at);
        return std::stoi(address.substr(address.rfind(':') + 1));
      }
      pollfd pfd{out_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 1000) <= 0) continue;
      char buffer[4096];
      const ssize_t got = read(out_fd_, buffer, sizeof buffer);
      if (got <= 0) break;
      seen.append(buffer, static_cast<std::size_t>(got));
    }
    stop();
    throw std::runtime_error("serve daemon did not start: " + seen);
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// One blocking loopback connection.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // A stalled daemon fails the run instead of hanging it.
    const timeval timeout{kIoTimeoutS, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
      close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~Conn() { close(fd_); }
  /// Unblocks a send or receive pending on another thread.
  void shutdown() { ::shutdown(fd_, SHUT_RDWR); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// The next line, without its '\n'.
  std::string line() {
    std::size_t eol;
    while ((eol = inbox_.find('\n')) == std::string::npos) {
      if (!fill()) throw std::runtime_error("connection closed mid-line");
    }
    std::string out = inbox_.substr(0, eol);
    inbox_.erase(0, eol + 1);
    return out;
  }

  std::string bytes(std::size_t n) {
    while (inbox_.size() < n) {
      if (!fill()) throw std::runtime_error("connection closed mid-frame");
    }
    std::string out = inbox_.substr(0, n);
    inbox_.erase(0, n);
    return out;
  }

  /// Everything until the peer closes.
  std::string rest() {
    while (fill()) {
    }
    return std::exchange(inbox_, {});
  }

 private:
  bool fill() {
    char buffer[65536];
    const ssize_t n = recv(fd_, buffer, sizeof buffer, 0);
    if (n <= 0) return false;
    inbox_.append(buffer, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string inbox_;
};

struct QueryReply {
  bool ok = false;
  bool cached = false;
  std::uint64_t epoch = 0;
  std::string text;
};

/// The reply to one QUERY: "OK query <t> <k> epoch <e> cached <0|1> bytes <n>" + n bytes.
QueryReply read_query(Conn& conn) {
  const std::string header = conn.line();
  QueryReply reply;
  if (header.rfind("OK ", 0) != 0) return reply;
  std::istringstream words(header);
  std::string word;
  std::size_t size = 0;
  while (words >> word) {
    if (word == "epoch") words >> reply.epoch;
    if (word == "cached") {
      int flag = 0;
      words >> flag;
      reply.cached = flag == 1;
    }
    if (word == "bytes") words >> size;
  }
  reply.text = conn.bytes(size);
  reply.ok = true;
  return reply;
}

QueryReply query(Conn& conn, const std::string& tenant, const std::string& key) {
  conn.send("QUERY " + tenant + " " + key + "\n");
  return read_query(conn);
}

/// The payload of a framed reply ("OK ... bytes <n>" + n bytes); nothing on ERR.
std::optional<std::string> framed(Conn& conn, const std::string& line) {
  conn.send(line + "\n");
  const std::string header = conn.line();
  const std::size_t at = header.rfind(" bytes ");
  if (header.rfind("OK ", 0) != 0 || at == std::string::npos) return std::nullopt;
  return conn.bytes(std::stoul(header.substr(at + 7)));
}

/// One sealed chunk of one tenant and the query that follows it.
struct Seal {
  std::size_t tenant = 0;
  std::string events;  ///< "EVENT <tenant> <row>\n" lines
  std::string key;     ///< the query key asked after this seal
  std::string expected;  ///< that key's answer on the sealed prefix
};

struct Tenant {
  std::string name;
  std::size_t events = 0;
  /// Rows the event stream rejects: it keeps the first of several records
  /// equal in (time, node, category) and reports the rest in STATS.
  std::size_t duplicates = 0;
  std::string study;  ///< expected `study` answer on the accepted log
};

/// What one iteration measured.
struct Sample {
  double replay_s = 0.0;
  std::vector<double> restore_s;
  std::vector<double> study_scan_s;  ///< each `study` scan over every tenant
  std::vector<double> seal_ms;  ///< traced: SEAL round trips after a PING barrier
  std::vector<double> query_ms;
  std::vector<double> miss_ms;
  std::vector<double> hit_ms;
  std::vector<double> scrape_ms;
  std::vector<double> connect_ms;
  double queries = 0.0;
  double hits = 0.0;
  double bad_rows = 0.0;
  double duplicates = 0.0;
  double rss_mib = 0.0;
  double threads = 0.0;
  double fds = 0.0;
  double vmsize_mib = 0.0;
  double segments = 0.0;
  double segment_bytes = 0.0;
  double attributed_s = 0.0;  ///< traced: ingest-side time inside timed calls
};

/// Queue of sealed chunks from the ingest client to the query client.
class SealQueue {
 public:
  void push(std::size_t seal, std::uint64_t epoch) {
    {
      std::lock_guard lock(mutex_);
      items_.emplace_back(seal, epoch);
    }
    ready_.notify_one();
  }
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    ready_.notify_one();
  }
  /// The next sealed chunk, or nothing once closed and drained.
  std::optional<std::pair<std::size_t, std::uint64_t>> pop() {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    auto item = items_.front();
    items_.pop_front();
    return item;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::pair<std::size_t, std::uint64_t>> items_;
  bool closed_ = false;
};

class Serve final : public Workload {
 public:
  explicit Serve(const Options& options)
      : options_(options) {}

  std::size_t setup_repeats() const override { return options_.scale.setup_repeats; }
  std::size_t min_iterations() const override { return options_.scale.min_iterations; }

  void setup(Ledger& ledger, std::size_t) override {
    tenants_.clear();
    seals_.clear();
    const data::MachineSpec& spec = data::spec_for(data::Machine::kTsubame3);
    std::vector<std::string> keys;
    for (const auto& key : serve::FleetService::keys()) keys.emplace_back(key.key);
    const std::size_t tenants = options_.scale.serve_tenants;
    const std::size_t chunks = options_.scale.seals_per_tenant;
    std::vector<std::vector<Seal>> by_tenant(tenants);
    std::size_t next_key = 0;
    for (std::size_t t = 0; t < tenants; ++t) {
      char name[24];
      std::snprintf(name, sizeof name, "t%03zu", t);
      const data::FailureLog generated = must(
          sim::generate_log(sim::tsubame3_model(), fork_seed(options_.seed, t)), "generate_log");
      const std::vector<std::string> rows = csv_rows(generated);
      Tenant tenant{name, rows.size(), 0, {}};
      std::vector<data::FailureRecord> records;
      std::set<std::tuple<std::int64_t, int, data::Category>> fingerprints;
      for (std::size_t c = 0; c < chunks; ++c) {
        Seal seal;
        seal.tenant = t;
        for (std::size_t r = rows.size() * c / chunks; r < rows.size() * (c + 1) / chunks; ++r) {
          seal.events += "EVENT " + tenant.name + " " + rows[r] + "\n";
          data::FailureRecord record = must(data::parse_record_row(rows[r]), "parse row").second;
          if (!fingerprints.emplace(record.time.seconds_since_epoch(), record.node, record.category)
                   .second) {
            ++tenant.duplicates;
            continue;
          }
          records.push_back(std::move(record));
        }
        // What the daemon holds after this seal, and the first key in
        // the rotation the prefix can answer.
        const data::FailureLog prefix = must(data::FailureLog::create(spec, records), "prefix log");
        for (std::size_t tries = 0; tries < keys.size() && seal.key.empty(); ++tries) {
          const std::string& key = keys[next_key++ % keys.size()];
          if (auto text = answer(prefix, key)) {
            seal.key = key;
            seal.expected = std::move(*text);
          }
        }
        ledger.check(!seal.key.empty(), "no query key answers " + tenant.name);
        if (c + 1 == chunks) tenant.study = answer(prefix, "study").value_or("");
        by_tenant[t].push_back(std::move(seal));
      }
      tenants_.push_back(std::move(tenant));
    }
    // Replay order: chunk by chunk, every tenant in turn.
    for (std::size_t c = 0; c < chunks; ++c) {
      for (auto& tenant_seals : by_tenant) seals_.push_back(std::move(tenant_seals[c]));
    }
  }

  double iterate(Ledger& ledger) override {
    const Sample sample = run(ledger, false);
    samples_.push_back(sample);
    double restore = 0.0;
    for (const double s : sample.restore_s) restore += s;
    return sample.replay_s + restore;
  }

  std::vector<std::string> report(Ledger& ledger) override {
    std::vector<double> replay_s, scan_s, restore_s, query_ms, scrape_ms, rss_mib;
    for (const Sample& s : samples_) {
      replay_s.push_back(s.replay_s);
      scan_s.insert(scan_s.end(), s.study_scan_s.begin(), s.study_scan_s.end());
      rss_mib.push_back(s.rss_mib);
      restore_s.insert(restore_s.end(), s.restore_s.begin(), s.restore_s.end());
      query_ms.insert(query_ms.end(), s.query_ms.begin(), s.query_ms.end());
      scrape_ms.insert(scrape_ms.end(), s.scrape_ms.begin(), s.scrape_ms.end());
    }
    ledger.key("tenants", static_cast<double>(tenants_.size()));
    ledger.key("N", static_cast<double>(total_events()));
    ledger.key("jobs", 1);
    const std::size_t n = replay_s.size();
    // The replay wall and the latency tails under mixed load are printed
    // but not gated: vCPU steal on shared hosts moves them by a factor of
    // 2 to 4 between runs.  The gated scan and restart times are the best
    // of the run's samples: host contention comes in phases of seconds
    // that slow a varying share of a run's samples, which moves the median
    // more than the fastest sample.
    const double best_scan_s = *std::min_element(scan_s.begin(), scan_s.end());
    const double best_restore_s = *std::min_element(restore_s.begin(), restore_s.end());
    ledger.metric("primary_s", best_scan_s, "s", scan_s.size());
    ledger.metric("secondary_s", best_restore_s, "s", restore_s.size());
    ledger.metric("rss_peak_mib", median(rss_mib), "MiB", n);
    ledger.metric("ingest_events_per_s", static_cast<double>(total_events()) / median(replay_s),
                  "1/s", n);
    ledger.metric("query_p50_ms", percentile(query_ms, 50), "ms", query_ms.size());
    ledger.metric("query_p99_ms", percentile(query_ms, 99), "ms", query_ms.size());
    ledger.metric("scrape_p50_ms", percentile(scrape_ms, 50), "ms", scrape_ms.size());
    ledger.metric("scrape_p95_ms", percentile(scrape_ms, 95), "ms", scrape_ms.size());
    ledger.metric("restore_s", median(restore_s), "s", restore_s.size());
    ledger.metric("restore_best_s", best_restore_s, "s", restore_s.size());
    ledger.metric("study_scan_s", median(scan_s), "s", scan_s.size());
    ledger.metric("study_scan_best_s", best_scan_s, "s", scan_s.size());
    ledger.raw("replay_s", replay_s);
    ledger.raw("study_scan_s", scan_s);
    ledger.raw("restore_s", restore_s);
    ledger.raw("rss_peak_mib", rss_mib);
    ledger.raw("query_ms", query_ms);
    ledger.raw("scrape_ms", scrape_ms);
    return {"study_scan_best_s", "study_scan_s", "restore_best_s", "restore_s",
            "ingest_events_per_s", "query_p50_ms", "query_p99_ms", "scrape_p50_ms",
            "scrape_p95_ms"};
  }

  TraceSummary trace(Ledger& ledger) override {
    const Sample s = run(ledger, true);
    ledger.metric("serve.seal_p50_ms", percentile(s.seal_ms, 50), "ms");
    ledger.metric("serve.seal_p95_ms", percentile(s.seal_ms, 95), "ms", s.seal_ms.size());
    ledger.metric("serve.query_miss_ms", median(s.miss_ms), "ms");
    ledger.metric("serve.query_hit_ms", median(s.hit_ms), "ms");
    ledger.metric("serve.cache_hit_ratio", s.queries > 0 ? s.hits / s.queries : 0.0, "ratio");
    ledger.metric("serve.connect_ms", median(s.connect_ms), "ms");
    ledger.metric("serve.query_p50_ms", percentile(s.query_ms, 50), "ms", s.query_ms.size());
    ledger.metric("serve.query_p99_ms", percentile(s.query_ms, 99), "ms", s.query_ms.size());
    ledger.metric("serve.scrape_p50_ms", percentile(s.scrape_ms, 50), "ms", s.scrape_ms.size());
    ledger.metric("serve.scrape_p95_ms", percentile(s.scrape_ms, 95), "ms", s.scrape_ms.size());
    ledger.metric("serve.segments", s.segments, "count");
    ledger.metric("serve.segment_bytes", s.segment_bytes, "bytes");
    ledger.metric("stream.bad_rows", s.bad_rows, "count");
    ledger.metric("stream.rejected_duplicates", s.duplicates, "count");
    ledger.metric("proc.threads", s.threads, "count");
    ledger.metric("proc.fds", s.fds, "count");
    ledger.metric("proc.vmsize_mib", s.vmsize_mib, "MiB");
    double restore = 0.0;
    for (const double r : s.restore_s) restore += r;
    return {s.replay_s + restore, s.attributed_s + restore};
  }

 private:
  /// Data rows of the canonical CSV (header dropped): what EVENT ingests.
  static std::vector<std::string> csv_rows(const data::FailureLog& log) {
    std::vector<std::string> rows;
    std::istringstream text(data::write_log_csv(log));
    std::string line;
    std::getline(text, line);
    while (std::getline(text, line)) {
      if (!line.empty()) rows.push_back(line);
    }
    return rows;
  }

  /// The daemon's answer to `key` on `log`, computed in process; nothing
  /// when the analysis is undefined for the log.
  static std::optional<std::string> answer(const data::FailureLog& log, const std::string& key) {
    if (key == "study") {
      auto study = analysis::run_study(log, {1});
      if (!study.ok()) return std::nullopt;
      return report::render_study_text(log, study.value());
    }
    auto text = analysis::run_query(key, data::LogIndex(log));
    if (!text.ok()) return std::nullopt;
    return std::move(text).value();
  }

  std::size_t total_events() const {
    std::size_t events = 0;
    for (const Tenant& tenant : tenants_) events += tenant.events;
    return events;
  }

  /// One replay on a fresh data dir, then the timed restarts.
  Sample run(Ledger& ledger, bool traced) {
    // A fresh data dir per replay; the run's work dir is removed at exit,
    // so no deletion competes with the timed writes.
    const std::string data_dir =
        options_.work_dir + "/serve-data-" + std::to_string(samples_.size());
    fs::remove_all(data_dir);
    fs::create_directories(data_dir);
    Sample sample;
    {
      Daemon daemon(options_.tsufail, data_dir);
      replay(ledger, daemon, traced, sample);
      check_duplicates(ledger, daemon, sample);
      sample.rss_mib = proc_status(daemon.pid(), "VmHWM:") / 1024.0;
      sample.vmsize_mib = proc_status(daemon.pid(), "VmSize:") / 1024.0;
      sample.threads = proc_status(daemon.pid(), "Threads:");
      sample.fds = proc_fds(daemon.pid());
    }
    for (const auto& entry : fs::recursive_directory_iterator(data_dir)) {
      if (!entry.is_regular_file()) continue;
      sample.segments += 1.0;
      sample.segment_bytes += static_cast<double>(entry.file_size());
    }
    for (std::size_t k = 0; k < options_.scale.restarts; ++k) {
      const double start = now_s();
      // No query cache, so each scan computes every tenant's study.
      Daemon daemon(options_.tsufail, data_dir, "0");
      Conn conn(daemon.port());
      const QueryReply first = query(conn, tenants_[0].name, "categories");
      sample.restore_s.push_back(now_s() - start);
      ledger.check(first.ok, "first query after restart failed");
      for (std::size_t pass = 0; pass < options_.scale.study_scans; ++pass)
        sample.study_scan_s.push_back(study_scan(ledger, conn));
    }
    return sample;
  }

  /// Every restored tenant's report once; returns the wall seconds.  The
  /// QUERY lines go out in one write and the replies are read in order,
  /// so the scan times the daemon's work rather than one client wake-up
  /// per tenant.
  double study_scan(Ledger& ledger, Conn& conn) {
    std::string lines;
    for (const Tenant& tenant : tenants_) lines += "QUERY " + tenant.name + " study\n";
    std::vector<QueryReply> studies;
    const double wall_s = timed([&] {
      conn.send(lines);
      for (std::size_t t = 0; t < tenants_.size(); ++t) studies.push_back(read_query(conn));
    });
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      ledger.check(studies[t].ok && !studies[t].cached && studies[t].text == tenants_[t].study,
                   "restored study of " + tenants_[t].name + " differs from run_study");
    }
    return wall_s;
  }

  /// Every tenant's STATS must report the duplicates its log holds.
  void check_duplicates(Ledger& ledger, const Daemon& daemon, Sample& sample) {
    Conn conn(daemon.port());
    for (const Tenant& tenant : tenants_) {
      const auto stats = framed(conn, "STATS " + tenant.name);
      const std::string field = "rejected_duplicates: ";
      const std::size_t at = stats ? stats->find(field) : std::string::npos;
      const double reported =
          at == std::string::npos ? -1.0 : std::stod(stats->substr(at + field.size()));
      ledger.check(reported == static_cast<double>(tenant.duplicates),
                   "STATS " + tenant.name + " reports " + std::to_string(reported) +
                       " duplicates, expected " + std::to_string(tenant.duplicates));
      sample.duplicates += std::max(reported, 0.0);
    }
  }

  void replay(Ledger& ledger, const Daemon& daemon, bool traced, Sample& sample) {
    Conn ingest(daemon.port());
    std::string opens;
    for (const Tenant& tenant : tenants_) opens += "OPEN " + tenant.name + " tsubame-3\n";
    ingest.send(opens);
    for (const Tenant& tenant : tenants_)
      ledger.check(ingest.line().rfind("OK", 0) == 0, "OPEN " + tenant.name);

    SealQueue queue;
    std::atomic<bool> stop_scraper{false};
    std::vector<std::string> failures;  // guarded by failures_mutex
    std::mutex failures_mutex;
    const auto fail = [&](const std::string& what) {
      std::lock_guard lock(failures_mutex);
      failures.push_back(what);
    };
    std::size_t query_checks = 0;
    std::size_t scrape_checks = 0;

    std::thread querier([&] {
      try {
        Conn conn(daemon.port());
        while (const auto item = queue.pop()) {
          const Seal& seal = seals_[item->first];
          const std::string& tenant = tenants_[seal.tenant].name;
          for (int round = 0; round < 2; ++round) {
            const double start = now_s();
            const QueryReply reply = query(conn, tenant, seal.key);
            const double ms = (now_s() - start) * 1e3;
            sample.query_ms.push_back(ms);
            (reply.cached ? sample.hit_ms : sample.miss_ms).push_back(ms);
            sample.queries += 1.0;
            sample.hits += reply.cached ? 1.0 : 0.0;
            ++query_checks;
            if (!reply.ok) fail("QUERY " + tenant + " " + seal.key);
            // A reply from a later epoch (ingest ran ahead) is checked for OK only.
            else if (reply.epoch == item->second && reply.text != seal.expected)
              fail("QUERY " + tenant + " " + seal.key + " answered wrongly");
          }
        }
      } catch (const std::exception& e) {
        fail(std::string("query client: ") + e.what());
      }
    });
    std::thread scraper([&] {
      try {
        for (std::size_t n = 0; !stop_scraper.load(); ++n) {
          const char* path = n % 2 == 0 ? "/metrics" : "/healthz";
          const double start = now_s();
          std::optional<Conn> conn;
          conn.emplace(daemon.port());
          sample.connect_ms.push_back((now_s() - start) * 1e3);
          conn->send(std::string("GET ") + path + " HTTP/1.0\r\n\r\n");
          const std::string response = conn->rest();
          sample.scrape_ms.push_back((now_s() - start) * 1e3);
          ++scrape_checks;
          if (response.rfind("HTTP/1.0 200", 0) != 0) fail(std::string("GET ") + path);
          std::this_thread::sleep_for(kScrapePause);
        }
      } catch (const std::exception& e) {
        fail(std::string("scraper: ") + e.what());
      }
    });

    try {
      const double start = now_s();
      if (traced) ingest_timed(ledger, ingest, queue, sample);
      else ingest_windowed(ledger, ingest, queue, sample, fail);
      sample.replay_s = now_s() - start;
    } catch (...) {
      queue.close();
      stop_scraper.store(true);
      querier.join();
      scraper.join();
      throw;
    }
    queue.close();
    querier.join();
    stop_scraper.store(true);
    scraper.join();

    ledger.tally(query_checks + scrape_checks, failures);
    ledger.check(sample.bad_rows == 0, "EVENT rows rejected");
  }

  /// The ingest client: a writer thread keeps up to kSealWindow chunks
  /// (EVENT rows + SEAL) in flight, this thread reads the SEAL replies
  /// and hands each sealed chunk to the query client.
  template <typename Fail>
  void ingest_windowed(Ledger& ledger, Conn& ingest, SealQueue& queue, Sample& sample,
                       const Fail& fail) {
    std::counting_semaphore<kSealWindow> window(kSealWindow);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      try {
        for (const Seal& seal : seals_) {
          window.acquire();
          if (stop.load()) return;
          ingest.send(seal.events + "SEAL " + tenants_[seal.tenant].name + "\n");
        }
      } catch (const std::exception& e) {
        fail(std::string("ingest writer: ") + e.what());
        ingest.shutdown();
      }
    });
    try {
      for (std::size_t i = 0; i < seals_.size(); ++i) {
        const std::string reply = read_reply(ingest, "OK epoch", sample);
        ledger.check(reply.rfind("OK epoch ", 0) == 0, "SEAL " + tenants_[seals_[i].tenant].name);
        queue.push(i, std::stoull(reply.substr(9)));
        window.release();
      }
    } catch (...) {
      stop.store(true);
      ingest.shutdown();
      window.release(kSealWindow);
      writer.join();
      throw;
    }
    writer.join();
  }

  /// The traced ingest client: one chunk at a time, with a PING barrier
  /// that drains the silent EVENTs so the SEAL round trip is timed alone.
  void ingest_timed(Ledger& ledger, Conn& ingest, SealQueue& queue, Sample& sample) {
    for (std::size_t i = 0; i < seals_.size(); ++i) {
      const Seal& seal = seals_[i];
      const std::string& tenant = tenants_[seal.tenant].name;
      sample.attributed_s += timed([&] {
        ingest.send(seal.events + "PING\n");
        read_reply(ingest, "OK pong", sample);
      });
      std::string reply;
      const double seal_s = timed([&] {
        ingest.send("SEAL " + tenant + "\n");
        reply = read_reply(ingest, "OK epoch", sample);
      });
      sample.attributed_s += seal_s;
      sample.seal_ms.push_back(seal_s * 1e3);
      ledger.check(reply.rfind("OK epoch ", 0) == 0, "SEAL " + tenant);
      queue.push(i, std::stoull(reply.substr(9)));
    }
  }

  /// Reads ingest replies up to the one starting with `want`; each ERR
  /// before it is a rejected EVENT row.
  static std::string read_reply(Conn& conn, const char* want, Sample& sample) {
    for (;;) {
      std::string line = conn.line();
      if (line.rfind(want, 0) == 0) return line;
      if (line.rfind("ERR", 0) == 0) {
        sample.bad_rows += 1.0;
        continue;
      }
      return line;
    }
  }

  Options options_;
  std::vector<Tenant> tenants_;
  std::vector<Seal> seals_;  ///< in replay order
  std::vector<Sample> samples_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Options& options) {
  return std::make_unique<Serve>(options);
}

}  // namespace perfbench
