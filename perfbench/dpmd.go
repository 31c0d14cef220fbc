package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pinnedFlags are the dpmd flags every workload runs with. They spell
// out the defaults the workloads depend on (a 256-entry plan cache, an
// 8-slot worker pool) so a later change of a default cannot silently
// change what the benchmark measures.
var pinnedFlags = []string{
	"-quiet",
	"-cache", "256",
	"-cache-shards", "0",
	"-pool", "8",
	"-table-cache", "128",
	"-timeout", "10s",
}

// ingestFlags enable the telemetry loop: manual flushes only (the
// benchmark closes every window itself) and 4.8 J per counted event,
// so a counter carrying a slot's usage watts reconstructs it exactly.
var ingestFlags = []string{
	"-ingest-flush", "0",
	"-ingest-event-energy", "4.8",
	"-ingest-predictor", "last-period",
	"-divergence-threshold", "0.25",
}

// daemon is one running dpmd process.
type daemon struct {
	cmd     *exec.Cmd
	exited  chan error
	base    string // http://127.0.0.1:<port>
	udpPort int    // 0 when ingestion is off
	args    []string
	client  *http.Client
}

// clientConns bounds the benchmark's connections to dpmd, so at most
// two requests are ever in flight.
const clientConns = 2

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clientConns,
			MaxConnsPerHost:     clientConns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// freePort asks the kernel for an unused port on the loopback address.
func freePort(network string) (int, error) {
	if network == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer ln.Close()
		return ln.Addr().(*net.TCPAddr).Port, nil
	}
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}

// startDaemon execs dpmd with the pinned flags (plus the ingestion
// flags when ingest is set), GOMAXPROCS=1 and on the server CPU, and
// returns once /readyz answers 200.
func startDaemon(bin string, ingest bool) (*daemon, error) {
	port, err := freePort("tcp")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, pinnedFlags...)
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), client: newHTTPClient()}
	if ingest {
		if d.udpPort, err = freePort("udp"); err != nil {
			return nil, fmt.Errorf("picking a port: %w", err)
		}
		args = append(args, "-ingest-addr", fmt.Sprintf("127.0.0.1:%d", d.udpPort))
		args = append(args, ingestFlags...)
	}
	d.args = args
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = os.Stderr
	d.cmd.Stderr = os.Stderr
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	if err := startOnServerCPU(d.cmd.Start); err != nil {
		return nil, fmt.Errorf("starting dpmd: %w", err)
	}
	d.exited = make(chan error, 1)
	go func() { d.exited <- d.cmd.Wait() }()
	if err := d.waitReady(30 * time.Second); err != nil {
		d.stop() //nolint:errcheck // the readiness failure is the error worth reporting
		return nil, err
	}
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(limit time.Duration) error {
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("dpmd exited before it was ready: %v", err)
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("dpmd not ready after %s", limit)
}

// stop sends SIGTERM, waits for the graceful shutdown and kills the
// process if it has not exited within 20 s. It always waits for the
// process to end.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.cmd.Process.Kill() //nolint:errcheck
	}
	select {
	case err := <-d.exited:
		d.exited <- err
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		err := <-d.exited
		d.exited <- err
		return fmt.Errorf("dpmd ignored SIGTERM: %v", err)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// post sends one JSON body and returns the status and reply.
func (d *daemon) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// promSnapshot is one /metrics scrape: every sample line keyed by its
// series (name plus label set, exactly as exposed).
type promSnapshot map[string]float64

func (d *daemon) scrape(ctx context.Context) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads the Prometheus text exposition format.
func parseProm(r io.Reader) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family name whose label text contains
// all of the given label fragments (e.g. `cache="plan"`).
func (p promSnapshot) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range p {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta is after − before for one family.
func delta(before, after promSnapshot, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100
// on every Linux architecture Go supports).
const clockTicks = 100

// procCPUSeconds returns a process's user+system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// utime and stime are the 12th and 13th fields after the
	// parenthesized command name.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// udpSocket is the kernel's view of dpmd's ingestion socket.
type udpSocket struct {
	rxQueue uint64 // bytes waiting to be read
	drops   uint64 // datagrams the socket dropped
}

// readUDPSocket finds the IPv4 loopback UDP socket bound to port in
// /proc/net/udp.
func readUDPSocket(port int) (udpSocket, error) {
	b, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return udpSocket{}, err
	}
	want := fmt.Sprintf("0100007F:%04X", port)
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 13 || f[1] != want {
			continue
		}
		q := strings.SplitN(f[4], ":", 2)
		if len(q) != 2 {
			break
		}
		rx, err1 := strconv.ParseUint(q[1], 16, 64)
		drops, err2 := strconv.ParseUint(f[len(f)-1], 10, 64)
		if err1 != nil || err2 != nil {
			break
		}
		return udpSocket{rxQueue: rx, drops: drops}, nil
	}
	return udpSocket{}, fmt.Errorf("no UDP socket on 127.0.0.1:%d in /proc/net/udp", port)
}

// udpInDatagrams returns the network namespace's count of UDP
// datagrams handed to applications (Udp: InDatagrams).
func udpInDatagrams() (uint64, error) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	var header []string
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "Udp: ")
		if !ok {
			continue
		}
		if header == nil {
			header = strings.Fields(rest)
			continue
		}
		vals := strings.Fields(rest)
		for i, h := range header {
			if h == "InDatagrams" && i < len(vals) {
				return strconv.ParseUint(vals[i], 10, 64)
			}
		}
	}
	return 0, errors.New("no Udp InDatagrams in /proc/net/snmp")
}

// procIdle reports whether none of a process's threads is running or
// runnable. A dpmd goroutine with pending work always holds a thread
// in state R, so an idle process has applied everything it has read.
func procIdle(pid int) (bool, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "stat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		i := bytes.LastIndexByte(b, ')')
		if i < 0 || i+2 >= len(b) {
			return false, fmt.Errorf("malformed task %s stat", t.Name())
		}
		if b[i+2] == 'R' {
			return false, nil
		}
	}
	return true, nil
}
