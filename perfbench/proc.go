package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// peaks collects the peak RSS of every launch of each measured command.
// rss_mb reports, for the command with the largest typical footprint,
// the median peak over its launches: a single launch's peak swings with
// where garbage collections happen to fall during loading.
type peaks map[string][]float64

func (p peaks) add(pr *proc) { p[pr.name()] = append(p[pr.name()], mb(pr.maxRSS)) }

func (p peaks) mb() float64 {
	most := 0.0
	for _, v := range p {
		most = max(most, median(v))
	}
	return most
}

// line is one output line of a command with the time it arrived.
type line struct {
	at   time.Time
	text string
}

// proc is a started command of the program under test. Its stdout and
// stderr lines are collected with arrival times; it runs in its own
// process group so stop reaches every process it forked.
type proc struct {
	cmd   *exec.Cmd
	start time.Time

	mu    sync.Mutex
	lines []line

	readers sync.WaitGroup
	done    chan struct{} // closed once the command has exited
	exited  time.Time
	err     error
	maxRSS  int64 // bytes, the largest resident set of the process tree
}

// startProc starts bin/name with args in dir, feeding stdin when non-nil.
func startProc(e *env, dir, name string, stdin io.Reader, args ...string) (*proc, error) {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Dir = dir
	cmd.Stdin = stdin
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Env = append(os.Environ(), "TMPDIR="+e.work)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	for _, r := range []io.Reader{stdout, stderr} {
		p.readers.Add(1)
		go p.collect(r)
	}
	go func() {
		p.readers.Wait() // Wait closes the pipes: drain them first
		p.err = cmd.Wait()
		p.exited = time.Now()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.maxRSS = ru.Maxrss * 1024 // Linux reports kilobytes
		}
		close(p.done)
	}()
	return p, nil
}

func (p *proc) collect(r io.Reader) {
	defer p.readers.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		p.mu.Lock()
		p.lines = append(p.lines, line{time.Now(), sc.Text()})
		p.mu.Unlock()
	}
}

// snapshot returns the lines collected so far.
func (p *proc) snapshot() []line {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lines
}

// matching returns every collected line containing substr.
func (p *proc) matching(substr string) []line {
	lines := p.snapshot()
	var out []line
	for _, l := range lines {
		if strings.Contains(l.text, substr) {
			out = append(out, l)
		}
	}
	return out
}

func (p *proc) name() string { return filepath.Base(p.cmd.Path) }

// tail returns the last lines of output, for error messages.
func (p *proc) tail() string {
	lines := p.snapshot()
	if len(lines) > 12 {
		lines = lines[len(lines)-12:]
	}
	var b strings.Builder
	for _, l := range lines {
		b.WriteString("  " + l.text + "\n")
	}
	return b.String()
}

// wait waits for the command to exit on its own, killing it after timeout.
func (p *proc) wait(timeout time.Duration) error {
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.kill()
		<-p.done
		return fmt.Errorf("%s did not finish within %s\n%s", p.name(), timeout, p.tail())
	}
	if p.err != nil {
		return fmt.Errorf("%s: %w\n%s", p.name(), p.err, p.tail())
	}
	return nil
}

// stop asks the process group to terminate and waits until it has exited.
func (p *proc) stop() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.kill()
		<-p.done
	}
}

func (p *proc) kill() { _ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) }

// freePorts returns n consecutive free localhost TCP ports. They are
// drawn from below the kernel's ephemeral range, so no outgoing
// connection can take one between this check and the command's bind:
// in particular not rank 0's dial to rank 1, which would otherwise
// connect to itself if it picked rank 1's port as its source port.
func freePorts(n int) (int, error) {
	hi := ephemeralLow() - n
	lo := min(20000, hi-1000)
	for attempt := 0; attempt < 200; attempt++ {
		base := lo + rand.IntN(hi-lo)
		ok := true
		for i := 0; i < n && ok; i++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				ok = false
				break
			}
			l.Close()
		}
		if ok {
			return base, nil
		}
	}
	return 0, errors.New("no run of free ports found")
}

// ephemeralLow is the first port of the kernel's ephemeral range.
func ephemeralLow() int {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if f := strings.Fields(string(b)); err == nil && len(f) == 2 {
		if lo, err := strconv.Atoi(f[0]); err == nil && lo > 4096 {
			return lo
		}
	}
	return 32768
}

// portTaken reports whether the command failed because a port it was
// given was bound by another process after freePorts checked it.
func (p *proc) portTaken() bool { return len(p.matching("address already in use")) > 0 }

// errPortTaken marks a launch that failed only because of portTaken.
var errPortTaken = errors.New("a port picked for the command was taken before it could bind it")

// retryPorts calls start, which picks its own ports, until it fails for
// another reason than errPortTaken, at most three times. Such a failure
// is the benchmark's, not the program's, and is not counted.
func retryPorts[T any](what string, start func() (T, error)) (T, error) {
	for attempt := 1; ; attempt++ {
		v, err := start()
		if attempt == 3 || !errors.Is(err, errPortTaken) {
			return v, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v; retrying on other ports\n", what, err)
	}
}
