package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// preciseTimer sleeps for microseconds through the runtime's network
// poller, on a Linux timerfd. time.Sleep rounds a wait on an idle
// runtime up to a millisecond, and a blocking nanosleep holds its P
// for as long as it sleeps, delaying the goroutine that receives the
// answers; a timerfd read does neither.
type preciseTimer struct {
	f   *os.File
	fd  uintptr
	buf []byte
}

func newPreciseTimer() (*preciseTimer, error) {
	const (
		clockMonotonic = 1
		tfdNonblock    = 0x800
		tfdCloexec     = 0x80000
	)
	fd, _, e := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if e != 0 {
		return nil, fmt.Errorf("servebench: timerfd_create: %w", e)
	}
	// A non-blocking descriptor makes the File pollable.
	return &preciseTimer{f: os.NewFile(fd, "timerfd"), fd: fd, buf: make([]byte, 8)}, nil
}

// sleep blocks the calling goroutine for d.
func (t *preciseTimer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(d.Nanoseconds())}
	if _, _, e := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return fmt.Errorf("servebench: timerfd_settime: %w", e)
	}
	_, err := t.f.Read(t.buf)
	return err
}

func (t *preciseTimer) close() { t.f.Close() }
