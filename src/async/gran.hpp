// Umbrella header for the gran public API: runtime, tasks, futures,
// composition, synchronization, and performance counters.
#pragma once

#include "async/async.hpp"
#include "async/dataflow.hpp"
#include "async/executor.hpp"
#include "async/future.hpp"
#include "async/packaged_task.hpp"
#include "async/when_all.hpp"
#include "perf/counters.hpp"
#include "sync/barrier.hpp"
#include "sync/channel.hpp"
#include "sync/condition_variable.hpp"
#include "sync/event.hpp"
#include "sync/latch.hpp"
#include "sync/mutex.hpp"
#include "sync/semaphore.hpp"
#include "threads/runtime.hpp"
#include "threads/thread_manager.hpp"
