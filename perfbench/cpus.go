package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. The benchmark is sized for a two-CPU machine: the load
// generator runs on the first CPU it may use and dpmd on the second,
// each with one Go P (GOMAXPROCS=1), so neither process's scheduler
// spins or migrates onto the other's CPU and a request's cost does not
// depend on where the kernel happened to place the two processes. With
// a single CPU both share it.

// cpuMask is a sched_setaffinity(2) mask for up to 1024 CPUs.
type cpuMask [16]uint64

// placement is the pair of CPUs the benchmark runs on.
type placement struct{ client, server int }

// cpus is set by pinProcess.
var cpus placement

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil, errno
	}
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty CPU affinity mask")
	}
	return out, nil
}

// setAffinity pins the thread tid (0 = the calling thread) to cpu.
func setAffinity(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinProcess chooses the placement, limits this process to one P and
// pins every one of its threads to the client CPU. Threads the Go
// runtime starts later inherit the mask of the thread that creates
// them.
func pinProcess() error {
	allowed, err := allowedCPUs()
	if err != nil {
		return fmt.Errorf("reading the CPU affinity mask: %w", err)
	}
	cpus = placement{allowed[0], allowed[0]}
	if len(allowed) > 1 {
		cpus.server = allowed[1]
	}
	runtime.GOMAXPROCS(1)
	for pass := 0; pass < 2; pass++ { // a second pass catches threads started during the first
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, cpus.client); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("pinning thread %d to CPU %d: %w", tid, cpus.client, err)
			}
		}
	}
	return nil
}

// startOnServerCPU runs start, which forks a child, on a thread pinned
// to the server CPU for the duration of the call; the child inherits
// that mask.
func startOnServerCPU(start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpus.server); err != nil {
		return fmt.Errorf("pinning to CPU %d: %w", cpus.server, err)
	}
	err := start()
	if perr := setAffinity(0, cpus.client); err == nil && perr != nil {
		err = fmt.Errorf("restoring CPU %d: %w", cpus.client, perr)
	}
	return err
}
