#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/audit.hh"
#include "core/deadline.hh"
#include "core/factory.hh"
#include "core/fault_injection.hh"
#include "core/hierarchy.hh"
#include "core/point_ipc.hh"
#include "obs/obs_config.hh"
#include "obs/phase_profiler.hh"
#include "trace/benchmarks.hh"
#include "util/crc32.hh"
#include "util/debug.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace rampage
{

ExperimentScale
experimentScale()
{
    return runSettings().scale;
}

std::vector<std::uint64_t>
issueRates()
{
    return runSettings().rates;
}

std::vector<std::uint64_t>
blockSizeSweep()
{
    return {128, 256, 512, 1024, 2048, 4096};
}

CommonConfig
defaultCommon(std::uint64_t issue_hz)
{
    CommonConfig common;
    common.issueHz = issue_hz;
    return common;
}

ConventionalConfig
baselineConfig(std::uint64_t issue_hz, std::uint64_t l2_block_bytes)
{
    ConventionalConfig config;
    config.common = defaultCommon(issue_hz);
    config.l2BlockBytes = l2_block_bytes;
    config.l2Assoc = 1;
    return config;
}

ConventionalConfig
twoWayConfig(std::uint64_t issue_hz, std::uint64_t l2_block_bytes)
{
    ConventionalConfig config = baselineConfig(issue_hz, l2_block_bytes);
    config.l2Assoc = 2;
    config.l2Repl = ReplPolicy::Random;
    return config;
}

RampageConfig
rampageConfig(std::uint64_t issue_hz, std::uint64_t page_bytes,
              bool switch_on_miss)
{
    RampageConfig config;
    config.common = defaultCommon(issue_hz);
    config.pager.pageBytes = page_bytes;
    config.switchOnMiss = switch_on_miss;
    return config;
}

SimConfig
armedSimConfig(std::uint64_t refs, std::uint64_t quantum_refs)
{
    RunSettings run = runSettings();
    SimConfig sim;
    sim.maxRefs = refs;
    sim.quantumRefs = quantum_refs;
    // Handler overhead is tens of percent at worst (Fig 4), so a
    // budget of 8x the benchmark references can only trip on a
    // genuine runaway point.
    sim.watchdogRefBudget = refs * 8 + 1'000'000;
    sim.auditLevel = run.auditLevel;
    sim.faultPlan = run.faultPlan;
    sim.cores = run.cores;
    sim.traceOutBase = run.obs.traceOutBase;
    sim.statsIntervalRefs = run.obs.statsIntervalRefs;
    sim.intervalOutBase = run.obs.intervalOutBase;
    sim.traceRingCapacity = run.obs.traceRingCapacity;
    return sim;
}

SimConfig
defaultSimConfig(bool switch_on_miss)
{
    ExperimentScale scale = experimentScale();
    SimConfig sim = armedSimConfig(scale.refs, scale.quantumRefs);
    sim.switchOnMiss = switch_on_miss;
    return sim;
}

SimResult
simulateSystem(const HierarchyConfig &config, const SimConfig &sim)
{
    // SimConfig::cores is a factory-level knob: apply it to the
    // hierarchy description before construction (0 leaves the
    // config's own core count alone).
    HierarchyConfig built = config;
    if (sim.cores > 0)
        built.common().cores = sim.cores;
    std::unique_ptr<Hierarchy> hierarchy = makeHierarchy(built);
    SimConfig effective = sim;
    if (config.family == HierarchyConfig::Family::Paged)
        effective.switchOnMiss = config.paged.switchOnMiss;
    std::vector<std::unique_ptr<TraceSource>> workload;
    {
        ScopedPhaseTimer timer(SweepPhase::TraceGen);
        workload = makeWorkload();
    }
    Simulator simulator(*hierarchy, std::move(workload), effective);
    // Lazy synthetic sources generate their references inside run(),
    // so time the scope by hand and credit the simulator's measured
    // fill() seconds to trace_gen: the simulate phase — the
    // refs_per_sec denominator — prices simulation alone, exactly as
    // the report documents.
    auto start = std::chrono::steady_clock::now();
    SimResult result = simulator.run();
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    double fill = std::min(result.traceGenSeconds, elapsed);
    phaseRecord(SweepPhase::TraceGen, fill);
    phaseRecord(SweepPhase::Simulate, elapsed - fill);
    return result;
}

// ------------------------------------------------------------ SweepRunner

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::Ok:
        return "ok";
      case PointStatus::Failed:
        return "failed";
      case PointStatus::AuditFailed:
        return "audit-failed";
      case PointStatus::Skipped:
        return "skipped";
      case PointStatus::TimedOut:
        return "timed-out";
      case PointStatus::Crashed:
        return "crashed";
    }
    return "unknown";
}

std::size_t
SweepReport::count(PointStatus status) const
{
    std::size_t n = 0;
    for (const PointOutcome &outcome : outcomes)
        if (outcome.status == status)
            ++n;
    return n;
}

void
SweepRunner::add(const std::string &id, std::function<SimResult()> body)
{
    for (const Point &point : points)
        if (point.id == id)
            throw ConfigError("duplicate sweep point id '%s'",
                              id.c_str());
    points.push_back(Point{id, std::move(body)});
}

/*
 * Checkpoint manifest format (one line per finished point, appended
 * with a single write(2) and fsync'd as each point finishes):
 *
 *   # rampage-sweep-checkpoint v2
 *   crc=<crc32 hex8> ok wall=<s> elapsed_ps=<ticks> attempts=<n> id=<id>
 *   crc=<crc32 hex8> audit wall=<s> invariant=<name> attempts=<n> id=<id>
 *
 * The crc field protects the rest of the line (everything after the
 * "crc=XXXXXXXX " prefix), so a line that was torn mid-append — the
 * signature of a SIGKILL or power loss between write() and the page
 * hitting disk — is detected rather than half-parsed.  Only "ok"
 * lines mark a point done; "audit" lines are forensic — they record
 * *which* model invariant an audit found violated, so a resumed
 * campaign (which will re-run the point) carries the trail of why the
 * previous attempt was rejected.
 *
 * Recovery policy, from most to least specific:
 *  - a manifest declaring a version newer than this build throws
 *    ConfigError naming the version (guessing at an unknown format
 *    could silently skip points);
 *  - v1 manifests (no crc fields) are read with the legacy lenient
 *    parse, so old checkpoints keep resuming;
 *  - a truncated *final* line (no trailing newline, or a CRC that
 *    does not cover a complete line) is the torn-append case: it is
 *    repaired by truncating the file back to the last good line, and
 *    costs exactly one re-simulated point;
 *  - any other damaged line is warned about and skipped — a corrupt
 *    checkpoint degrades to re-simulation, never to an error;
 *  - a duplicate id (two runs raced on one manifest) is warned about
 *    and collapsed to a single completion.
 */
namespace
{

constexpr unsigned manifestVersion = 2;
constexpr char manifestHeaderPrefix[] = "# rampage-sweep-checkpoint v";
/** "crc=XXXXXXXX " — 4 + 8 + 1 bytes before the protected body. */
constexpr std::size_t manifestCrcPrefixBytes = 13;

/** Parse one manifest body ("ok wall=... id=..."); "" if not done. */
std::string
parseManifestBody(const std::string &body, double &wall)
{
    if (body.rfind("audit ", 0) == 0)
        return ""; // forensic record only; the point is not done
    if (body.rfind("ok ", 0) != 0)
        return "";
    std::size_t id_at = body.find(" id=");
    if (id_at == std::string::npos)
        return "";
    std::size_t wall_at = body.find("wall=");
    if (wall_at != std::string::npos)
        wall = std::strtod(body.c_str() + wall_at + 5, nullptr);
    return body.substr(id_at + 4);
}

/** Whether a v2 line's CRC prefix matches its body. */
bool
manifestLineIntact(const std::string &line, std::string &body)
{
    if (line.size() < manifestCrcPrefixBytes ||
        line.compare(0, 4, "crc=") != 0 ||
        line[manifestCrcPrefixBytes - 1] != ' ')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long stored =
        std::strtoul(line.c_str() + 4, &end, 16);
    if (errno == ERANGE ||
        end != line.c_str() + manifestCrcPrefixBytes - 1)
        return false;
    body = line.substr(manifestCrcPrefixBytes);
    return crc32(body) == static_cast<std::uint32_t>(stored);
}

} // namespace

std::map<std::string, double>
SweepRunner::loadManifest() const
{
    std::map<std::string, double> done;
    if (opts.checkpointPath.empty())
        return done;
    std::ifstream in(opts.checkpointPath, std::ios::binary);
    if (!in.is_open())
        return done; // first run: nothing checkpointed yet
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();

    std::size_t pos = 0;
    std::uint64_t line_no = 0;
    while (pos < text.size()) {
        std::size_t line_start = pos;
        std::size_t nl = text.find('\n', pos);
        bool complete = nl != std::string::npos;
        std::string line =
            text.substr(pos, (complete ? nl : text.size()) - pos);
        pos = complete ? nl + 1 : text.size();
        ++line_no;
        bool last = pos >= text.size();

        if (line.empty())
            continue;
        if (line[0] == '#') {
            // Refuse manifests from a newer build: an unknown format
            // could mark points done that are not.
            if (line.rfind(manifestHeaderPrefix, 0) == 0) {
                unsigned long version = std::strtoul(
                    line.c_str() + sizeof(manifestHeaderPrefix) - 1,
                    nullptr, 10);
                if (version > manifestVersion)
                    throw ConfigError(
                        "checkpoint '%s' is a v%lu manifest; this "
                        "build reads up to v%u — resume with a newer "
                        "build or remove the file",
                        opts.checkpointPath.c_str(), version,
                        manifestVersion);
            }
            continue;
        }

        double wall = 0;
        std::string id;
        if (line.rfind("crc=", 0) == 0) {
            std::string body;
            if (manifestLineIntact(line, body)) {
                id = parseManifestBody(body, wall);
                if (id.empty())
                    continue; // intact forensic line
            }
        } else {
            // v1 legacy line: no CRC to check; lenient parse.
            id = parseManifestBody(line, wall);
            if (id.empty() && (line.rfind("audit ", 0) == 0))
                continue;
        }

        if (id.empty()) {
            if (last && !complete) {
                // Torn final append: repair by truncation so the next
                // append starts on a clean line, and re-simulate
                // exactly this point.
                warnRateLimited(
                    "checkpoint '%s': repairing torn final manifest "
                    "line; that point will be re-simulated",
                    opts.checkpointPath.c_str());
                if (::truncate(opts.checkpointPath.c_str(),
                               static_cast<off_t>(line_start)) != 0)
                    RAMPAGE_DPRINTF(
                        Trace, "checkpoint '%s': truncate failed: %s",
                        opts.checkpointPath.c_str(),
                        std::strerror(errno));
                continue;
            }
            // Interior damage (bit rot, CRC mismatch, hand edits): a
            // torn manifest can hurt many lines at once; cap the
            // noise and keep only the count.
            warnRateLimited(
                "checkpoint: ignoring damaged manifest line");
            RAMPAGE_DPRINTF(Trace,
                            "checkpoint '%s': damaged line %llu",
                            opts.checkpointPath.c_str(),
                            static_cast<unsigned long long>(line_no));
            continue;
        }
        if (done.count(id))
            warnRateLimited(
                "checkpoint '%s': duplicate manifest entry for point "
                "'%s' (two runs raced on one manifest?)",
                opts.checkpointPath.c_str(), id.c_str());
        done[id] = wall;
    }
    return done;
}

void
SweepRunner::appendManifest(const PointOutcome &outcome,
                            const SweepFaultPlan &fault) const
{
    if (opts.checkpointPath.empty())
        return;
    int fd = ::open(opts.checkpointPath.c_str(),
                    O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        int err = errno;
        if (err == ENOSPC || err == EIO)
            warnOnce("checkpoint '%s': %s (host I/O failure, category "
                     "%s); completions will not be recorded",
                     opts.checkpointPath.c_str(), std::strerror(err),
                     errorCategoryName(ErrorCategory::Io));
        else
            warn("cannot append to checkpoint '%s' (%s); point '%s' "
                 "will be re-simulated on resume",
                 opts.checkpointPath.c_str(), std::strerror(err),
                 outcome.id.c_str());
        return;
    }

    // Build the whole append — header if the file is fresh, a healing
    // newline if a previous append was torn, then the CRC-protected
    // line — in memory, and emit it with ONE write(2).  A crash can
    // then only ever leave a *prefix* of one line behind, which the
    // loader detects by CRC and repairs by truncation; it can never
    // interleave with another worker's append or split the header.
    std::string data;
    struct stat st;
    if (::fstat(fd, &st) == 0) {
        if (st.st_size == 0) {
            data += manifestHeaderPrefix;
            data += std::to_string(manifestVersion);
            data += '\n';
        } else {
            char lastByte = '\n';
            if (::pread(fd, &lastByte, 1, st.st_size - 1) == 1 &&
                lastByte != '\n')
                data += '\n';
        }
    }

    std::string body;
    if (outcome.status == PointStatus::AuditFailed)
        body = formatErrorMessage(
            "audit wall=%.6f invariant=%s attempts=%u id=%s",
            outcome.wallSeconds,
            outcome.auditInvariant.empty()
                ? "unknown"
                : outcome.auditInvariant.c_str(),
            outcome.attempts, outcome.id.c_str());
    else
        body = formatErrorMessage(
            "ok wall=%.6f elapsed_ps=%llu attempts=%u id=%s",
            outcome.wallSeconds,
            static_cast<unsigned long long>(outcome.result.elapsedPs),
            outcome.attempts, outcome.id.c_str());
    data += formatErrorMessage("crc=%08x ", crc32(body));
    data += body;
    data += '\n';

    // Fault injection: tear this point's append mid-line, exactly as
    // a SIGKILL between write() and completion would.
    if (fault.kind == SweepFault::TornManifestLine &&
        fault.matches(outcome.id))
        data.resize(data.size() - body.size() / 2 - 1);

    ssize_t written = ::write(fd, data.data(), data.size());
    if (written != static_cast<ssize_t>(data.size())) {
        int err = errno;
        if (written < 0 && (err == ENOSPC || err == EIO))
            warnOnce("checkpoint '%s': %s (host I/O failure, category "
                     "%s); completions will not be recorded",
                     opts.checkpointPath.c_str(), std::strerror(err),
                     errorCategoryName(ErrorCategory::Io));
        else
            warn("short write to checkpoint '%s'; point '%s' will be "
                 "re-simulated on resume",
                 opts.checkpointPath.c_str(), outcome.id.c_str());
    }
    ::fsync(fd);
    ::close(fd);
}

namespace
{

/** Disarms the per-point deadline on every exit path of an attempt. */
struct DeadlineGuard
{
    explicit DeadlineGuard(double seconds)
    {
        if (seconds > 0)
            armPointDeadline(seconds);
    }
    ~DeadlineGuard() { disarmPointDeadline(); }
};

/**
 * The child side of --isolate relays its post-mortem ring up the
 * outcome pipe from a fatal-signal handler before dying of the
 * original signal, so even a SIGSEGV ships its last debug events.
 */
int childRelayFd = -1;

extern "C" void
relayFatalSignal(int sig)
{
    if (childRelayFd >= 0)
        debugRingWriteFramed(childRelayFd, pointIpcRingTag);
    // SA_RESETHAND restored the default action; re-raise so the
    // parent observes the true termination signal.
    ::raise(sig);
}

void
installFatalSignalRelay()
{
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = relayFatalSignal;
    action.sa_flags = SA_RESETHAND;
    sigemptyset(&action.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
        ::sigaction(sig, &action, nullptr);
}

} // namespace

SweepRunner::Resolved
SweepRunner::resolveOptions() const
{
    RunSettings run = runSettings();
    Resolved how;
    how.jobs = opts.jobs ? opts.jobs : run.jobs;
    if (opts.pointDeadlineSeconds > 0)
        how.deadlineSeconds = opts.pointDeadlineSeconds;
    else if (opts.pointDeadlineSeconds == 0)
        how.deadlineSeconds = run.deadlineSeconds;
    how.retries = opts.maxRetries >= 0
                      ? static_cast<unsigned>(opts.maxRetries)
                      : run.retries;
    how.backoffSeconds = opts.retryBackoffSeconds;
    how.isolate = opts.isolate >= 0 ? opts.isolate != 0 : run.isolate;
    how.fault = run.sweepFault;
    return how;
}

PointOutcome
SweepRunner::runLocalAttempt(const Point &point,
                             const Resolved &how) const
{
    PointOutcome outcome;
    outcome.id = point.id;

    // Each point starts with a clean ring so a failure's tail holds
    // only its own events.  The ring is thread-local, so concurrent
    // points cannot pollute each other's post-mortems.
    clearDebugRing();
    // Phase attribution and trace/interval file naming are also
    // thread-local: reset the accumulator, and label this thread's
    // simulation runs with the point id so per-point files compose
    // with --jobs and --isolate.
    phaseThreadReset();
    ObsPointLabelScope obs_label(point.id);
    const SweepFaultPlan &fault = how.fault;
    auto started = std::chrono::steady_clock::now();
    try {
        DeadlineGuard deadline(how.deadlineSeconds);
        if (fault.kind == SweepFault::Crash && fault.matches(point.id))
            ::raise(SIGSEGV);
        if (fault.kind == SweepFault::Hang && fault.matches(point.id)) {
            // A point that never finishes but does reach the watchdog
            // seam: sleeps in small slices, polling the deadline the
            // way Simulator::checkWatchdog does.  Without a deadline
            // this hangs for real — which is the point.
            for (;;) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                checkPointDeadlineNow(0);
            }
        }
        outcome.result = point.body();
        outcome.haveResult = true;
        outcome.status = PointStatus::Ok;
    } catch (const TimeoutError &e) {
        outcome.status = PointStatus::TimedOut;
        outcome.errorCategory = e.category();
        outcome.error = e.what();
        outcome.refsAtCancel = e.refsExecuted();
        outcome.exception = std::current_exception();
    } catch (const AuditError &e) {
        outcome.status = PointStatus::AuditFailed;
        outcome.errorCategory = e.category();
        outcome.error = e.what();
        outcome.auditInvariant = e.firstInvariant();
        outcome.auditScope = e.scope();
        outcome.auditViolations = e.violations();
        outcome.exception = std::current_exception();
    } catch (const SimError &e) {
        outcome.status = PointStatus::Failed;
        outcome.errorCategory = e.category();
        outcome.error = e.what();
        outcome.exception = std::current_exception();
    } catch (const std::exception &e) {
        outcome.status = PointStatus::Failed;
        outcome.errorCategory = ErrorCategory::Internal;
        outcome.error = e.what();
        outcome.exception = std::current_exception();
    }
    outcome.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    outcome.phaseSeconds = phaseThreadTotals();

    if (outcome.status == PointStatus::Ok) {
        // Throughput measures the simulator's inner loop, so divide
        // by the simulate phase alone: wall time also covers trace
        // generation, audits and checkpoint I/O, which would
        // understate (and noise up) refs/s.  Fall back to wall time
        // when phase profiling recorded nothing.
        double denom = outcome.simulateSeconds() > 0
                           ? outcome.simulateSeconds()
                           : outcome.wallSeconds;
        if (denom > 0)
            outcome.refsPerSecond =
                static_cast<double>(outcome.result.counts.refs) /
                denom;
    } else {
        outcome.debugTail = debugRingTail(16);
    }
    return outcome;
}

PointOutcome
SweepRunner::runIsolatedAttempt(const Point &point,
                                const Resolved &how) const
{
    int fds[2];
    if (::pipe(fds) != 0) {
        warnRateLimited("sweep: pipe failed (%s); running '%s' "
                        "in-process",
                        std::strerror(errno), point.id.c_str());
        return runLocalAttempt(point, how);
    }
    auto started = std::chrono::steady_clock::now();
    pid_t pid = ::fork();
    if (pid < 0) {
        warnRateLimited("sweep: fork failed (%s); running '%s' "
                        "in-process",
                        std::strerror(errno), point.id.c_str());
        ::close(fds[0]);
        ::close(fds[1]);
        return runLocalAttempt(point, how);
    }
    if (pid == 0) {
        // Child: run the attempt exactly as in-process would, encode
        // the outcome bit-exactly, and die with _exit so inherited
        // stdio buffers are not flushed twice.
        ::close(fds[0]);
        childRelayFd = fds[1];
        installFatalSignalRelay();
        PointOutcome outcome = runLocalAttempt(point, how);
        outcome.exception = nullptr; // rebuilt from fields by parent
        writeFramedRecord(fds[1], pointIpcOutcomeTag,
                          encodePointOutcome(outcome));
        ::_exit(0);
    }

    // Parent: drain the pipe until EOF.  The hard-kill backstop fires
    // when a child blows through its deadline *without* reaching the
    // cooperative cancellation seam (a real hang, not a slow point):
    // deadline plus a grace period, then SIGKILL.
    ::close(fds[1]);
    double kill_after = 0;
    if (how.deadlineSeconds > 0)
        kill_after =
            how.deadlineSeconds + std::max(1.0, how.deadlineSeconds);
    bool hard_killed = false;
    std::string stream;
    for (;;) {
        int timeout_ms = -1;
        if (kill_after > 0 && !hard_killed) {
            double left = kill_after -
                          std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
            timeout_ms =
                left <= 0 ? 0
                          : static_cast<int>(left * 1000.0) + 1;
        }
        struct pollfd waiter;
        waiter.fd = fds[0];
        waiter.events = POLLIN;
        waiter.revents = 0;
        int ready = ::poll(&waiter, 1, timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0) {
            ::kill(pid, SIGKILL);
            hard_killed = true;
            continue; // drain whatever the child managed to write
        }
        char buf[4096];
        ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        stream.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR)
        continue;
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started)
                      .count();

    // Parent-side IPC cost: framing parse + outcome decode (the poll
    // loop above is dominated by the child's own runtime, which the
    // child attributes itself).
    auto decode_started = std::chrono::steady_clock::now();
    bool torn = false;
    std::vector<FramedRecord> records = parseFramedRecords(stream, torn);
    PointOutcome outcome;
    bool have_outcome = false;
    std::vector<std::string> relayed_ring;
    for (const FramedRecord &record : records) {
        if (record.tag == pointIpcRingTag) {
            relayed_ring.push_back(record.payload);
        } else if (record.tag == pointIpcOutcomeTag) {
            try {
                outcome = decodePointOutcome(record.payload);
                have_outcome = true;
            } catch (const InternalError &e) {
                warnRateLimited("sweep: '%s': %s", point.id.c_str(),
                                e.what());
            }
        }
    }
    double ipc_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             decode_started)
                             .count();
    // Keep at most the tail the in-process path would keep.
    if (relayed_ring.size() > 16)
        relayed_ring.erase(relayed_ring.begin(),
                           relayed_ring.end() - 16);

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && have_outcome) {
        outcome.exception = rebuildPointException(outcome);
        // The child's phase totals died with its process-global
        // accumulator; merge its harvested per-point totals — plus
        // the parent-side decode — into this process's.
        outcome.phaseSeconds[static_cast<std::size_t>(
            SweepPhase::Ipc)] += ipc_seconds;
        phaseGlobalAdd(outcome.phaseSeconds);
        return outcome;
    }

    outcome = PointOutcome();
    outcome.id = point.id;
    outcome.wallSeconds = wall;
    outcome.debugTail = std::move(relayed_ring);
    outcome.phaseSeconds[static_cast<std::size_t>(SweepPhase::Ipc)] +=
        ipc_seconds;
    phaseGlobalAdd(outcome.phaseSeconds);
    if (hard_killed) {
        outcome.status = PointStatus::TimedOut;
        outcome.errorCategory = ErrorCategory::Timeout;
        outcome.error = formatErrorMessage(
            "point exceeded its %.3f s deadline without reaching the "
            "cancellation seam; killed after %.3f s",
            how.deadlineSeconds, kill_after);
    } else if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        outcome.status = PointStatus::Crashed;
        outcome.errorCategory = ErrorCategory::Internal;
        outcome.signalNumber = sig;
        outcome.error = formatErrorMessage(
            "isolated point killed by signal %d (%s)", sig,
            ::strsignal(sig));
    } else {
        outcome.status = PointStatus::Failed;
        outcome.errorCategory = ErrorCategory::Internal;
        outcome.error = formatErrorMessage(
            "isolated point exited with status %d without reporting "
            "an outcome",
            WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    }
    outcome.exception = rebuildPointException(outcome);
    return outcome;
}

PointOutcome
SweepRunner::executePoint(const Point &point, const Resolved &how) const
{
    PointOutcome outcome;
    for (unsigned attempt = 1;; ++attempt) {
        outcome = how.isolate ? runIsolatedAttempt(point, how)
                              : runLocalAttempt(point, how);
        outcome.attempts = attempt;
        // Only transient failures retry: a deterministic error fails
        // the same way every time, and a timeout already consumed its
        // full deadline once.
        if (outcome.status != PointStatus::Failed ||
            !isRetryableCategory(outcome.errorCategory) ||
            attempt > how.retries)
            break;
        double backoff =
            how.backoffSeconds * static_cast<double>(1u << (attempt - 1));
        backoff = std::min(backoff, 2.0);
        RAMPAGE_DPRINTF(Trace,
                        "sweep '%s': transient %s error, retry %u/%u "
                        "after %.3f s",
                        point.id.c_str(),
                        errorCategoryName(outcome.errorCategory),
                        attempt, how.retries, backoff);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff));
    }

    // Checkpoint as soon as the point finishes (not when it is
    // reported) so a crash costs at most the points still in flight.
    // An audit rejection is also checkpointed, as a non-completing
    // forensic line naming the invariant.
    if (outcome.status == PointStatus::Ok ||
        outcome.status == PointStatus::AuditFailed) {
        auto started = std::chrono::steady_clock::now();
        {
            std::lock_guard<std::mutex> lock(manifestMutex);
            appendManifest(outcome, how.fault);
        }
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
        phaseRecord(SweepPhase::Checkpoint, seconds);
        outcome.phaseSeconds[static_cast<std::size_t>(
            SweepPhase::Checkpoint)] += seconds;
    }
    return outcome;
}

void
SweepRunner::reportOutcome(const PointOutcome &outcome) const
{
    switch (outcome.status) {
      case PointStatus::Skipped:
        inform("sweep: '%s' already checkpointed, skipping",
               outcome.id.c_str());
        return;
      case PointStatus::Ok:
        if (outcome.attempts > 1)
            inform("sweep: '%s' ok (%.2f s, %.0f refs/s, "
                   "%u attempts)",
                   outcome.id.c_str(), outcome.wallSeconds,
                   outcome.refsPerSecond, outcome.attempts);
        else
            inform("sweep: '%s' ok (%.2f s, %.0f refs/s)",
                   outcome.id.c_str(), outcome.wallSeconds,
                   outcome.refsPerSecond);
        return;
      case PointStatus::TimedOut:
        warn("sweep: '%s' timed out after %.2f s (%llu refs "
             "executed): %s",
             outcome.id.c_str(), outcome.wallSeconds,
             static_cast<unsigned long long>(outcome.refsAtCancel),
             outcome.error.c_str());
        break;
      case PointStatus::Crashed:
        warn("sweep: '%s' crashed (signal %d): %s",
             outcome.id.c_str(), outcome.signalNumber,
             outcome.error.c_str());
        break;
      case PointStatus::Failed:
      case PointStatus::AuditFailed:
        if (outcome.attempts > 1)
            warn("sweep: '%s' failed (%s error, %u attempts): %s",
                 outcome.id.c_str(),
                 errorCategoryName(outcome.errorCategory),
                 outcome.attempts, outcome.error.c_str());
        else
            warn("sweep: '%s' failed (%s error): %s",
                 outcome.id.c_str(),
                 errorCategoryName(outcome.errorCategory),
                 outcome.error.c_str());
        break;
    }
    if (!outcome.debugTail.empty()) {
        std::fprintf(stderr, "---- debug ring tail for '%s' ----\n",
                     outcome.id.c_str());
        for (const std::string &event : outcome.debugTail)
            std::fprintf(stderr, "  %s\n", event.c_str());
        std::fprintf(stderr, "----\n");
    }
}

SweepReport
SweepRunner::run()
{
    SweepReport report;
    report.outcomes.resize(points.size());
    std::map<std::string, double> done;
    {
        ScopedPhaseTimer timer(SweepPhase::Checkpoint);
        done = loadManifest();
    }
    const Resolved how = resolveOptions();
    unsigned jobs = how.jobs;

    // Points the manifest marks complete are resolved up front; the
    // rest form the work queue the pool drains.
    std::vector<std::size_t> pending;
    std::vector<char> ready(points.size(), 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointOutcome &outcome = report.outcomes[i];
        outcome.id = points[i].id;
        auto checkpointed = done.find(points[i].id);
        if (checkpointed != done.end()) {
            outcome.status = PointStatus::Skipped;
            outcome.wallSeconds = checkpointed->second;
            ready[i] = 1;
        } else {
            pending.push_back(i);
        }
    }

    std::mutex mtx; // guards report.outcomes, ready, simulated_done
    std::condition_variable point_done;
    std::atomic<std::size_t> next_work{0};
    std::size_t simulated_done = 0;

    auto worker = [&]() {
        for (;;) {
            std::size_t slot = next_work.fetch_add(1);
            if (slot >= pending.size())
                return;
            std::size_t index = pending[slot];
            PointOutcome outcome = executePoint(points[index], how);
            {
                std::lock_guard<std::mutex> lock(mtx);
                report.outcomes[index] = std::move(outcome);
                ready[index] = 1;
                ++simulated_done;
            }
            point_done.notify_all();
        }
    };

    std::size_t worker_count =
        std::min<std::size_t>(jobs, pending.size());
    std::vector<std::thread> pool;
    pool.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i)
        pool.emplace_back(worker);

    // The main thread is the reporter: it emits every per-point
    // status line in add() order regardless of completion order, so
    // the campaign's output is identical for any jobs value.  It also
    // owns the heartbeat — a timed wait rather than a point-boundary
    // check, so a long-running first point still shows signs of life,
    // and checkpointed points are never counted as work done.
    auto campaign_started = std::chrono::steady_clock::now();
    auto last_heartbeat = campaign_started;
    std::size_t skipped = points.size() - pending.size();
    {
        std::unique_lock<std::mutex> lock(mtx);
        std::size_t next_report = 0;
        while (next_report < report.outcomes.size()) {
            if (ready[next_report]) {
                reportOutcome(report.outcomes[next_report]);
                ++next_report;
                continue;
            }
            if (opts.heartbeatSeconds <= 0) {
                point_done.wait(lock);
                continue;
            }
            auto now_tp = std::chrono::steady_clock::now();
            double since = std::chrono::duration<double>(
                               now_tp - last_heartbeat)
                               .count();
            if (since >= opts.heartbeatSeconds) {
                last_heartbeat = now_tp;
                std::size_t done = simulated_done;
                // Emit with the lock released: every pass of this
                // loop either reports a point or lets the workers in,
                // even when the period is shorter than one pass.
                lock.unlock();
                inform("sweep: heartbeat %zu/%zu points simulated "
                       "this run (%zu skipped), %.1f s elapsed",
                       done, pending.size(), skipped,
                       std::chrono::duration<double>(
                           now_tp - campaign_started)
                           .count());
                std::string phases = phaseGlobalSummary();
                if (!phases.empty())
                    inform("sweep: host phases: %s", phases.c_str());
                lock.lock();
                continue;
            }
            point_done.wait_for(lock,
                                std::chrono::duration<double>(
                                    opts.heartbeatSeconds - since));
        }
    }
    for (std::thread &thread : pool)
        thread.join();
    return report;
}

} // namespace rampage
