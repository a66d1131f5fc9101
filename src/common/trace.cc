#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/json.h"

namespace sharing {

std::atomic<bool> Trace::enabled_{false};

namespace {

/// One ring slot. Every field is a relaxed atomic — on x86-64 these are
/// plain moves, and they keep the concurrent exporter TSan-clean — with
/// a per-slot seqlock version so the exporter can detect (and discard)
/// a slot it caught mid-overwrite instead of locking the writer out.
struct Slot {
  std::atomic<uint32_t> version{0};  // odd while the writer is inside
  std::atomic<char> phase{'X'};
  std::atomic<uint32_t> nargs{0};
  std::atomic<int64_t> ts_micros{0};
  std::atomic<int64_t> dur_micros{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> category{nullptr};
  std::atomic<uint64_t> query_id{0};
  std::atomic<uint64_t> signature{0};
  std::atomic<const char*> arg_key[Trace::kMaxArgs] = {};
  std::atomic<int64_t> arg_value[Trace::kMaxArgs] = {};
};
// A 16 B header, six 8 B fields and four 16 B args: the per-event memory
// docs/KNOBS.md and docs/TRACING.md quote for the ring.
static_assert(sizeof(Slot) == 128, "ring slot size changed; update the docs");

/// A decoded, stable copy of one slot (what the exporter works with).
struct DecodedEvent {
  uint32_t tid = 0;
  char phase = 'X';
  int64_t ts_micros = 0;
  int64_t dur_micros = 0;
  const char* name = nullptr;
  const char* category = nullptr;
  uint64_t query_id = 0;
  uint64_t signature = 0;
  std::size_t nargs = 0;
  TraceArg args[Trace::kMaxArgs];
};

class ThreadBuffer {
 public:
  ThreadBuffer(std::size_t capacity, uint32_t tid)
      : slots_(capacity == 0 ? 1 : capacity), tid_(tid) {}

  uint32_t tid() const { return tid_; }
  std::size_t capacity() const { return slots_.size(); }

  std::size_t resident() const {
    return std::min<uint64_t>(count_.load(std::memory_order_acquire),
                              slots_.size());
  }

  /// Owning thread only.
  void Record(char phase, const char* category, const char* name,
              int64_t ts_micros, int64_t dur_micros, uint64_t query_id,
              uint64_t signature, const TraceArg* args, std::size_t nargs) {
    const uint64_t n = count_.load(std::memory_order_relaxed);
    Slot& slot = slots_[n % slots_.size()];
    const uint32_t v = slot.version.load(std::memory_order_relaxed);
    slot.version.store(v + 1, std::memory_order_relaxed);
    // The odd version must be visible before any field store, or a
    // concurrent exporter could assemble a torn event and pass its own
    // version check.
    std::atomic_thread_fence(std::memory_order_release);
    slot.phase.store(phase, std::memory_order_relaxed);
    slot.ts_micros.store(ts_micros, std::memory_order_relaxed);
    slot.dur_micros.store(dur_micros, std::memory_order_relaxed);
    slot.name.store(name, std::memory_order_relaxed);
    slot.category.store(category, std::memory_order_relaxed);
    slot.query_id.store(query_id, std::memory_order_relaxed);
    slot.signature.store(signature, std::memory_order_relaxed);
    if (nargs > Trace::kMaxArgs) nargs = Trace::kMaxArgs;
    slot.nargs.store(static_cast<uint32_t>(nargs), std::memory_order_relaxed);
    for (std::size_t i = 0; i < nargs; ++i) {
      slot.arg_key[i].store(args[i].key, std::memory_order_relaxed);
      slot.arg_value[i].store(args[i].value, std::memory_order_relaxed);
    }
    slot.version.store(v + 2, std::memory_order_release);
    count_.store(n + 1, std::memory_order_release);
  }

  /// Any thread. Appends every stable resident event to `out`; events
  /// the writer is overwriting right now are skipped.
  void Decode(std::vector<DecodedEvent>* out) const {
    const std::size_t n = resident();
    for (std::size_t i = 0; i < n; ++i) {
      const Slot& slot = slots_[i];
      const uint32_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 & 1) continue;
      DecodedEvent ev;
      ev.tid = tid_;
      ev.phase = slot.phase.load(std::memory_order_relaxed);
      ev.ts_micros = slot.ts_micros.load(std::memory_order_relaxed);
      ev.dur_micros = slot.dur_micros.load(std::memory_order_relaxed);
      ev.name = slot.name.load(std::memory_order_relaxed);
      ev.category = slot.category.load(std::memory_order_relaxed);
      ev.query_id = slot.query_id.load(std::memory_order_relaxed);
      ev.signature = slot.signature.load(std::memory_order_relaxed);
      ev.nargs = std::min<std::size_t>(
          slot.nargs.load(std::memory_order_relaxed), Trace::kMaxArgs);
      for (std::size_t a = 0; a < ev.nargs; ++a) {
        ev.args[a].key = slot.arg_key[a].load(std::memory_order_relaxed);
        ev.args[a].value = slot.arg_value[a].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.version.load(std::memory_order_relaxed) != v1) continue;
      if (ev.name == nullptr) continue;  // never fully written
      out->push_back(ev);
    }
  }

 private:
  std::vector<Slot> slots_;
  const uint32_t tid_;
  /// Total events ever recorded into this ring (monotonic; the write
  /// cursor is count_ % capacity).
  std::atomic<uint64_t> count_{0};
};

/// Process-wide collector state: the set of per-thread rings (kept past
/// thread exit so short-lived workers still export) and the capacity new
/// rings are created with. The mutex guards registration and export
/// bookkeeping only — never the record path.
struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::size_t buffer_events = Trace::kDefaultBufferEvents;
  uint32_t next_tid = 1;
  /// Bumped by Clear() so threads holding a dropped ring re-register.
  /// Atomic so the record path can probe it without the mutex.
  std::atomic<uint64_t> epoch{1};
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

struct ThreadSlot {
  std::shared_ptr<ThreadBuffer> buffer;
  uint64_t epoch = 0;
};

ThreadBuffer* GetThreadBuffer() {
  thread_local ThreadSlot slot;
  Registry& reg = GetRegistry();
  if (slot.buffer == nullptr ||
      slot.epoch != reg.epoch.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(reg.mutex);
    slot.buffer = std::make_shared<ThreadBuffer>(reg.buffer_events,
                                                 reg.next_tid++);
    slot.epoch = reg.epoch.load(std::memory_order_relaxed);
    reg.buffers.push_back(slot.buffer);
  }
  return slot.buffer.get();
}

}  // namespace

void Trace::Enable(std::size_t buffer_events) {
  Registry& reg = GetRegistry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffer_events = buffer_events == 0 ? 1 : buffer_events;
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Trace::Disable() { enabled_.store(false, std::memory_order_relaxed); }

int64_t Trace::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Trace::RecordComplete(const char* category, const char* name,
                           int64_t ts_micros, int64_t dur_micros,
                           uint64_t query_id, uint64_t signature,
                           const TraceArg* args, std::size_t nargs) {
  if (!enabled()) return;
  GetThreadBuffer()->Record('X', category, name, ts_micros, dur_micros,
                            query_id, signature, args, nargs);
}

void Trace::RecordInstant(const char* category, const char* name,
                          uint64_t query_id, uint64_t signature,
                          const TraceArg* args, std::size_t nargs) {
  if (!enabled()) return;
  GetThreadBuffer()->Record('i', category, name, NowMicros(), 0, query_id,
                            signature, args, nargs);
}

const char* Trace::InternString(const std::string& s) {
  // Interned strings live for the process (the pool is never torn down):
  // a ring slot written years of events ago may still point at one.
  static std::mutex* mutex = new std::mutex();
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(*mutex);
  return pool->insert(s).first->c_str();
}

std::string Trace::ExportChromeJson(int64_t since_micros) {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffers = reg.buffers;
  }
  std::vector<DecodedEvent> events;
  for (const auto& buffer : buffers) buffer->Decode(&events);
  if (since_micros > 0) {
    // Keep any event still in flight at the window start: a span that
    // began before it but ended inside it is part of the story.
    std::erase_if(events, [since_micros](const DecodedEvent& ev) {
      return ev.ts_micros + ev.dur_micros < since_micros;
    });
  }
  // chrome://tracing tolerates any order, but sorted-by-time within a
  // tid is what ci/check_trace.sh validates and what a human diffing two
  // exports wants.
  std::stable_sort(events.begin(), events.end(),
                   [](const DecodedEvent& a, const DecodedEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_micros < b.ts_micros;
                   });

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const DecodedEvent& ev : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, ev.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, ev.category == nullptr ? "-" : ev.category);
    out += "\",\"ph\":\"";
    out.push_back(ev.phase);
    out += "\"";
    if (ev.phase == 'i') out += ",\"s\":\"t\"";
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u", ev.tid);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%lld",
                  static_cast<long long>(ev.ts_micros));
    out += buf;
    if (ev.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%lld",
                    static_cast<long long>(ev.dur_micros));
      out += buf;
    }
    out += ",\"args\":{";
    bool first_arg = true;
    if (ev.query_id != 0) {
      std::snprintf(buf, sizeof(buf), "\"query_id\":%llu",
                    static_cast<unsigned long long>(ev.query_id));
      out += buf;
      first_arg = false;
    }
    if (ev.signature != 0) {
      if (!first_arg) out += ",";
      // Hex string: signatures are 64-bit hashes and JSON numbers lose
      // precision past 2^53.
      std::snprintf(buf, sizeof(buf), "\"signature\":\"0x%llx\"",
                    static_cast<unsigned long long>(ev.signature));
      out += buf;
      first_arg = false;
    }
    for (std::size_t a = 0; a < ev.nargs; ++a) {
      if (ev.args[a].key == nullptr) continue;
      if (!first_arg) out += ",";
      first_arg = false;
      out += "\"";
      AppendJsonEscaped(&out, ev.args[a].key);
      std::snprintf(buf, sizeof(buf), "\":%lld",
                    static_cast<long long>(ev.args[a].value));
      out += buf;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

Status Trace::ExportChromeJsonToFile(const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open()) {
    return Status::IoError("trace export: cannot open " + path);
  }
  const std::string json = ExportChromeJson();
  file.write(json.data(), static_cast<std::streamsize>(json.size()));
  file.flush();
  if (!file.good()) return Status::IoError("trace export: write failed");
  return Status::OK();
}

void Trace::Clear() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.buffers.clear();
  ++reg.epoch;
}

std::size_t Trace::ResidentEvents() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    buffers = reg.buffers;
  }
  std::size_t total = 0;
  for (const auto& buffer : buffers) total += buffer->resident();
  return total;
}

}  // namespace sharing
