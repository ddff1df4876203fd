package sim

// Test-only views of the automatic partitioning policy's internals.

// AutoPartitions exposes the automatic worker-count choice.
var AutoPartitions = autoPartitions

// BusyKernelWorkers reports the process-wide count of running kernel workers.
func BusyKernelWorkers() int64 { return kernelWorkers.Load() }
