#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "dist/exchange.h"
#include "dist/frame.h"
#include "graph/spmm.h"
#include "tensor/matrix.h"

namespace sgnn::dist {

using common::PutPod;
using common::PutVec;
using common::Status;
using common::StatusOr;
using graph::NodeId;

std::string WorkerSpec::Serialize() const {
  std::string buf;
  PutPod<int32_t>(&buf, worker_id);
  PutPod<int32_t>(&buf, num_workers);
  PutPod<int32_t>(&buf, incarnation);
  PutPod<int32_t>(&buf, rows_per_frame);
  PutPod<int64_t>(&buf, cols);
  PutPod<int64_t>(&buf, read_deadline_micros);
  PutVec(&buf, owned);
  PutVec(&buf, halo);
  PutVec(&buf, offsets);
  PutVec(&buf, neighbors);
  PutVec(&buf, coefficients);
  PutVec(&buf, self_loop);
  return buf;
}

namespace {

/// Global id -> row slot of the worker's value store: owned rows first,
/// then halo rows.
using SlotMap = std::unordered_map<NodeId, NodeId>;

/// `WorkerSpec::Parse`, also resolving the slots a worker needs: `slots`
/// for every owned/halo id, and `neighbor_slots[e]` for spec edge e — so
/// an epoch does no id lookups.
StatusOr<WorkerSpec> ParseResolved(const std::string& payload, SlotMap* slots,
                                   std::vector<NodeId>* neighbor_slots) {
  common::ByteCursor cur{payload.data(), payload.size()};
  WorkerSpec spec;
  spec.worker_id = cur.Pod<int32_t>();
  spec.num_workers = cur.Pod<int32_t>();
  spec.incarnation = cur.Pod<int32_t>();
  spec.rows_per_frame = cur.Pod<int32_t>();
  spec.cols = cur.Pod<int64_t>();
  spec.read_deadline_micros = cur.Pod<int64_t>();
  cur.Vec(&spec.owned);
  cur.Vec(&spec.halo);
  cur.Vec(&spec.offsets);
  cur.Vec(&spec.neighbors);
  cur.Vec(&spec.coefficients);
  cur.Vec(&spec.self_loop);
  if (!cur.ok || cur.left != 0) {
    return Status::DataLoss("truncated or oversized worker spec");
  }
  if (spec.worker_id < 0 || spec.num_workers <= 0 ||
      spec.worker_id >= spec.num_workers || spec.cols < 0 ||
      spec.rows_per_frame <= 0 ||
      spec.offsets.size() != spec.owned.size() + 1 ||
      spec.self_loop.size() != spec.owned.size() ||
      spec.coefficients.size() != spec.neighbors.size() ||
      (!spec.offsets.empty() && spec.offsets.back() != spec.neighbors.size())) {
    return Status::DataLoss("inconsistent worker spec");
  }
  if (!std::is_sorted(spec.offsets.begin(), spec.offsets.end())) {
    return Status::DataLoss("worker spec offsets not monotone");
  }
  slots->clear();
  slots->reserve(spec.owned.size() + spec.halo.size());
  for (size_t i = 0; i < spec.owned.size(); ++i) {
    slots->emplace(spec.owned[i], static_cast<NodeId>(i));
  }
  for (size_t i = 0; i < spec.halo.size(); ++i) {
    slots->emplace(spec.halo[i], static_cast<NodeId>(spec.owned.size() + i));
  }
  neighbor_slots->clear();
  neighbor_slots->reserve(spec.neighbors.size());
  for (const NodeId id : spec.neighbors) {
    auto it = slots->find(id);
    if (it == slots->end()) {
      return Status::DataLoss("worker spec neighbour " + std::to_string(id) +
                              " neither owned nor haloed");
    }
    neighbor_slots->push_back(it->second);
  }
  return spec;
}

}  // namespace

StatusOr<WorkerSpec> WorkerSpec::Parse(const std::string& payload) {
  SlotMap slots;
  std::vector<NodeId> neighbor_slots;
  return ParseResolved(payload, &slots, &neighbor_slots);
}

namespace {

/// Mutable per-process worker state between frames.
struct WorkerState {
  WorkerSpec spec;
  tensor::Matrix local;  ///< Owned rows first, then halo rows.
  tensor::Matrix out;    ///< One row per owned node, epoch scratch.
  SlotMap slots;
  std::vector<NodeId> neighbor_slots;  ///< Per spec edge.
};

/// One epoch of local aggregation: the shared SpMM row body over the
/// owned rows, on the calling thread (no `par` pool survives `fork`).
void ComputeEpoch(WorkerState* state) {
  const WorkerSpec& spec = state->spec;
  state->out.Zero();
  const graph::CsrSpmmView<uint64_t> view{spec.offsets.data(),
                                          state->neighbor_slots.data(),
                                          spec.coefficients.data(),
                                          spec.self_loop.data(),
                                          state->local.data(),
                                          state->out.data(),
                                          spec.cols};
  graph::SpmmRows(view, 0, static_cast<int64_t>(spec.owned.size()),
                  spec.cols);
}

/// Stores a received row batch (scatter, restore, or halo) into the local
/// value store; unknown ids are a protocol violation.
Status StoreRows(WorkerState* state, const std::string& payload) {
  return DecodeRows(
      payload, state->spec.cols, [state](NodeId id, const float* row) {
        auto it = state->slots.find(id);
        if (it == state->slots.end()) {
          return Status::DataLoss("row for node " + std::to_string(id) +
                                  " not owned or haloed here");
        }
        std::memcpy(state->local.Row(it->second).data(), row,
                    static_cast<size_t>(state->spec.cols) * sizeof(float));
        return Status::OK();
      });
}

}  // namespace

void WorkerMain(int fd, common::FaultInjector* faults) {
  WorkerState state;
  bool configured = false;
  for (;;) {
    const int64_t read_micros = state.spec.read_deadline_micros;
    Frame frame;
    const Status read_status =
        ReadFrame(fd, &frame, common::Deadline::After(read_micros));
    if (!read_status.ok()) {
      // Coordinator gone (EOF), stream torn, or deadline: nothing to do
      // but die; the coordinator's own detection drives recovery.
      _exit(read_status.code() == common::StatusCode::kUnavailable ? 0 : 5);
    }
    switch (frame.type) {
      case FrameType::kConfig: {
        auto spec_or = ParseResolved(frame.payload, &state.slots,
                                     &state.neighbor_slots);
        if (!spec_or.ok()) _exit(2);
        state.spec = std::move(spec_or).value();
        const int64_t rows = static_cast<int64_t>(state.spec.owned.size()) +
                             static_cast<int64_t>(state.spec.halo.size());
        state.local = tensor::Matrix(rows, state.spec.cols);
        state.out = tensor::Matrix(
            static_cast<int64_t>(state.spec.owned.size()), state.spec.cols);
        configured = true;
        break;
      }
      case FrameType::kRows:
      case FrameType::kHalo: {
        if (!configured) _exit(2);
        if (!StoreRows(&state, frame.payload).ok()) _exit(2);
        break;
      }
      case FrameType::kGo: {
        if (!configured) _exit(2);
        const uint64_t token =
            KillToken(state.spec.worker_id, static_cast<int>(frame.epoch),
                      state.spec.incarnation);
        const FrameFaults send_faults{faults, token};
        Frame heartbeat;
        heartbeat.type = FrameType::kHeartbeat;
        heartbeat.epoch = frame.epoch;
        if (!WriteFrame(fd, heartbeat, nullptr, send_faults).ok()) _exit(4);

        ComputeEpoch(&state);

        const size_t total = state.spec.owned.size();
        const size_t per_frame =
            static_cast<size_t>(state.spec.rows_per_frame);
        const size_t num_chunks = (total + per_frame - 1) / per_frame;
        for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
          if (chunk == num_chunks / 2 && faults != nullptr &&
              faults->ShouldFail(kSiteWorkerKill, token)) {
            // Injected mid-epoch death: some result rows are already on
            // the wire, the rest never will be. `_exit`, not `exit`: a
            // real SIGKILL runs no user code either.
            _exit(3);
          }
          const size_t begin = chunk * per_frame;
          const size_t count = std::min(per_frame, total - begin);
          Frame rows;
          rows.type = FrameType::kRows;
          rows.epoch = frame.epoch;
          rows.payload = EncodeRowBlock(
              std::span(state.spec.owned).subspan(begin, count), state.out,
              static_cast<int64_t>(begin));
          if (!WriteFrame(fd, rows, nullptr, send_faults).ok()) _exit(4);
        }
        // Adopt the new values for the next epoch before reporting done.
        for (size_t i = 0; i < total; ++i) {
          std::memcpy(state.local.Row(static_cast<int64_t>(i)).data(),
                      state.out.Row(static_cast<int64_t>(i)).data(),
                      static_cast<size_t>(state.spec.cols) * sizeof(float));
        }
        Frame done;
        done.type = FrameType::kEpochDone;
        done.epoch = frame.epoch;
        if (!WriteFrame(fd, done, nullptr, send_faults).ok()) _exit(4);
        break;
      }
      case FrameType::kShutdown:
        _exit(0);
      default:
        _exit(2);
    }
  }
}

}  // namespace sgnn::dist
