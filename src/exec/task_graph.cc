#include "exec/task_graph.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simcore/check.h"

namespace elastic::exec {

namespace {

/// Start offset of partition `t` out of `parts` over `total` items.
int64_t PartitionBegin(int64_t total, int parts, int t) {
  return total * t / parts;
}

}  // namespace

TaskGraph::TaskGraph(numasim::PageTable* page_table, const BaseCatalog* catalog,
                     const db::PlanTrace* trace, const TaskGraphOptions& options,
                     std::function<void()> on_complete)
    : page_table_(page_table),
      catalog_(catalog),
      trace_(trace),
      options_(options),
      on_complete_(std::move(on_complete)) {
  ELASTIC_CHECK(options_.parallelism >= 1, "parallelism must be positive");
  ELASTIC_CHECK(!trace_->stages.empty(), "plan trace has no stages");
  PrepareStage();
}

TaskGraph::~TaskGraph() {
  for (numasim::BufferId buffer : stage_buffers_) {
    if (page_table_->IsLive(buffer)) page_table_->FreeBuffer(buffer);
  }
}

void TaskGraph::PrepareStage() {
  const db::TraceStage& stage = trace_->stages[static_cast<size_t>(stage_)];
  const int64_t page_bytes = catalog_->page_bytes();

  // Output buffer for this stage's materialisation.
  const int64_t out_pages =
      std::max<int64_t>(1, (stage.out_bytes() + page_bytes - 1) / page_bytes);
  const numasim::BufferId out_buffer = page_table_->CreateBuffer(
      out_pages, trace_->query + ":s" + std::to_string(stage_));
  stage_buffers_.push_back(out_buffer);
  stage_buffer_pages_.push_back(out_pages);

  // Resolve inputs once: (buffer, full_pages, touched_pages).
  struct ResolvedInput {
    numasim::BufferId buffer;
    int64_t full_pages;
    int64_t touched;
  };
  std::vector<ResolvedInput> inputs;
  int64_t primary_touched = 1;
  int64_t rows_in = 0;
  for (const db::StageInput& in : stage.inputs) {
    ResolvedInput resolved;
    if (in.stage >= 0) {
      resolved.buffer = stage_buffers_[static_cast<size_t>(in.stage)];
      resolved.full_pages = stage_buffer_pages_[static_cast<size_t>(in.stage)];
    } else {
      resolved.buffer = catalog_->BufferOf(in.base_column);
      resolved.full_pages = catalog_->PagesOf(in.base_column);
    }
    const int64_t dense_pages =
        (in.rows * in.width + page_bytes - 1) / page_bytes;
    resolved.touched =
        in.dense ? std::min(resolved.full_pages, std::max<int64_t>(1, dense_pages))
                 : std::min(resolved.full_pages, std::max<int64_t>(1, in.rows));
    inputs.push_back(resolved);
    primary_touched = std::max(primary_touched, resolved.touched);
    rows_in = std::max(rows_in, in.rows);
  }

  // Parallelism: never spawn more tasks than the widest input has pages.
  const int tasks = static_cast<int>(std::max<int64_t>(
      1, std::min<int64_t>(options_.parallelism, primary_touched)));

  const double stage_compute =
      options_.cycles_per_row * static_cast<double>(std::max<int64_t>(rows_in, 1)) *
      stage.cpu_weight;
  const double compute_per_task = stage_compute / static_cast<double>(tasks);

  if (options_.clock != nullptr) {
    StageTiming timing;
    timing.started = options_.clock->now();
    timing.tasks = tasks;
    timings_.push_back(timing);
  }

  ready_.clear();
  ready_.reserve(static_cast<size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    ossim::Job job;
    job.stream = trace_->stream;
    int64_t task_pages = 0;
    for (const ResolvedInput& in : inputs) {
      // Slice the buffer among tasks; within the slice, read the task's
      // proportional share of the touched pages (front-aligned).
      const int64_t slice_begin = PartitionBegin(in.full_pages, tasks, t);
      const int64_t touch_begin = PartitionBegin(in.touched, tasks, t);
      const int64_t touch_end = PartitionBegin(in.touched, tasks, t + 1);
      const int64_t count = touch_end - touch_begin;
      if (count <= 0) continue;
      ossim::PageRange range;
      range.buffer = in.buffer;
      range.begin = slice_begin;
      range.end = std::min(slice_begin + count, in.full_pages);
      range.write = false;
      if (range.num_pages() > 0) {
        task_pages += range.num_pages();
        job.ranges.push_back(range);
      }
    }
    // Output slice, first-touched by this task on whatever core runs it.
    {
      const int64_t out_begin = PartitionBegin(out_pages, tasks, t);
      const int64_t out_end = PartitionBegin(out_pages, tasks, t + 1);
      if (out_end > out_begin) {
        ossim::PageRange range;
        range.buffer = out_buffer;
        range.begin = out_begin;
        range.end = out_end;
        range.write = true;
        task_pages += range.num_pages();
        job.ranges.push_back(range);
      }
    }
    job.cpu_cycles_per_page = static_cast<int64_t>(
        compute_per_task / static_cast<double>(std::max<int64_t>(task_pages, 1)));
    ready_.push_back(std::move(job));
  }
  jobs_outstanding_ = tasks;
}

std::vector<ossim::Job> TaskGraph::TakeReadyJobs() {
  std::vector<ossim::Job> jobs;
  jobs.swap(ready_);
  return jobs;
}

void TaskGraph::OnJobComplete() {
  ELASTIC_CHECK(jobs_outstanding_ > 0, "completion without outstanding job");
  jobs_outstanding_--;
  if (jobs_outstanding_ > 0 || done_) return;
  // Stage barrier reached.
  if (options_.clock != nullptr && !timings_.empty()) {
    timings_.back().finished = options_.clock->now();
  }
  stage_++;
  if (stage_ < num_stages()) {
    PrepareStage();
    return;
  }
  Finish();
}

void TaskGraph::Finish() {
  done_ = true;
  for (numasim::BufferId buffer : stage_buffers_) {
    if (page_table_->IsLive(buffer)) page_table_->FreeBuffer(buffer);
  }
  // The callback may destroy this graph: call it last, from a local copy.
  const std::function<void()> callback = std::move(on_complete_);
  if (callback) callback();
}

}  // namespace elastic::exec
