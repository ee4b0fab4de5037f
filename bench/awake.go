package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// spinFlag makes the binary run as one keep-awake spinner.
const spinFlag = "-spin-until-stdin-closes"

// keepAwake starts one lowest-priority spinning child process per CPU
// and returns the function that stops them and waits for them.
//
// The reference box is a small virtual machine whose idle vCPUs are
// halted, and waking a halted vCPU there costs an erratic amount: a
// workload whose threads sleep most of the time (serve-submit runs at
// a quarter of the machine) reads 24 ms or 35 ms median latency from
// one process to the next with identical inputs and identical CPU time.
// With every vCPU always runnable the same workload reads 25 ms ± 2
// (one spinner for two vCPUs is worse than none).
// The spinners run at nice 19 under SCHED_IDLE, so anything the workload
// wants to run takes the CPU from them at once (ten alternating pairs
// read a 21.6 ms median with the idle policy, 23.5 ms at nice 19
// alone), and they are separate processes, so
// their CPU time is not in the workload's getrusage numbers.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	var pipes []io.Closer
	stop = func() {
		for _, p := range pipes {
			p.Close() // the spinner exits when its stdin closes
		}
		for _, c := range cmds {
			_ = c.Wait() // exit status of a spinner carries no information
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, spinFlag)
		in, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			stop()
			return nil, fmt.Errorf("keep-awake spinner: %w", err)
		}
		cmds, pipes = append(cmds, cmd), append(pipes, in)
	}
	return stop, nil
}

// spin is the spinner process: lowest priority, busy until the parent
// closes the pipe (or dies, which closes it too).
func spin() {
	// Linux niceness belongs to the thread: the loop must stay on the
	// thread that was niced.
	runtime.LockOSThread()
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // best effort: raising one's own nice value always succeeds
	// SCHED_IDLE on top: a waking thread of any other policy preempts an
	// idle-policy one at once, where a nice-19 one may keep the CPU until
	// the next tick. Best effort too (any user may enter SCHED_IDLE).
	var param struct{ priority int32 }
	_, _, _ = syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
	}
}
