package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"syscall"
	"time"

	"pacds/internal/metrics"
	"pacds/internal/obs"
)

// untracedFlags run cdsd on its defaults with every tracing and debug
// surface off, as the end-to-end numbers require.
var untracedFlags = []string{"-trace-capacity", "0", "-debug=false", "-log-level", "warn"}

// tracedFlags keep the most recent traceCapacity request traces in cdsd's
// ring for GET /debug/traces.
const traceCapacity = 16384

var tracedFlags = []string{"-trace-capacity", fmt.Sprint(traceCapacity), "-debug=false", "-log-level", "warn"}

// child is a cdsd process started from the checkout's build.
type child struct {
	cmd   *exec.Cmd
	base  string
	http  *http.Client
	conns []*conn
}

// startCdsd starts cdsd on a loopback port chosen by the kernel and waits
// until it answers its liveness probe.
func startCdsd(bin string, clients int, flags []string) (*child, error) {
	if bin == "" {
		return nil, errors.New("no cdsd binary given (-cdsd)")
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// If this process dies without stopping the child, the kernel drains it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cdsd: %w", err)
	}
	c := &child{cmd: cmd, http: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		},
	}}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "cdsd listening on ")
	if err != nil || !ok {
		c.stop()
		return nil, fmt.Errorf("cdsd did not report its address (read %q: %v)", line, err)
	}
	go io.Copy(io.Discard, stdout) // nothing else is printed; never block the child
	c.base = "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := c.http.Get(c.base + "/healthz/live")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("cdsd at %s never became live: %v", c.base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop drains cdsd with SIGTERM and waits for it to exit, killing it if
// the drain overruns.
func (c *child) stop() error {
	c.http.CloseIdleConnections()
	for _, k := range c.conns {
		k.close()
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.cmd.Process.Kill()
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return errors.New("cdsd did not drain within 15s and was killed")
	}
}

// do sends one request and reads the whole response into buf.
func (c *child) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// conn is one closed-loop client's keep-alive HTTP/1.1 connection to
// cdsd. It writes each request and parses its response in the calling
// goroutine, so an op costs the client no hand-offs to transport
// goroutines: the client's share of an op stays small and fixed next to
// the server's.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	hdr  []byte
}

// dial returns a client connection that stop closes.
func (c *child) dial() *conn {
	k := &conn{addr: strings.TrimPrefix(c.base, "http://")}
	c.conns = append(c.conns, k)
	return k
}

// do sends one request and reads the whole response into buf. After an
// error the connection is closed and the next request dials anew.
func (k *conn) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	code, err := k.roundTrip(method, path, body, buf)
	if err != nil {
		k.close()
	}
	return code, err
}

func (k *conn) roundTrip(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	if k.nc == nil {
		nc, err := net.Dial("tcp", k.addr)
		if err != nil {
			return 0, err
		}
		k.nc, k.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	if err := k.nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, err
	}
	k.hdr = fmt.Appendf(k.hdr[:0], "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n", method, path, k.addr, len(body))
	if body != nil {
		k.hdr = append(k.hdr, "Content-Type: application/json\r\n"...)
	}
	k.hdr = append(k.hdr, "\r\n"...)
	bufs := net.Buffers{k.hdr, body}
	if _, err := bufs.WriteTo(k.nc); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		k.close()
	}
	return resp.StatusCode, err
}

func (k *conn) close() {
	if k.nc != nil {
		k.nc.Close()
		k.nc, k.br = nil, nil
	}
}

// scrape reads cdsd's /metrics.
func (c *child) scrape() (metrics.Scrape, error) {
	var buf bytes.Buffer
	code, err := c.do(http.MethodGet, "/metrics", nil, &buf)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return metrics.ParseText(&buf)
}

// traces reads every trace cdsd's ring retains whose root is name and
// that started at or after since.
func (c *child) traces(name string, since time.Time) ([]*obs.TraceRecord, error) {
	var buf bytes.Buffer
	code, err := c.do(http.MethodGet, "/debug/traces?n=0&name="+name, nil, &buf)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/debug/traces: status %d", code)
	}
	var tr obs.TracesResponse
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		return nil, fmt.Errorf("/debug/traces: %w", err)
	}
	var out []*obs.TraceRecord
	for _, rec := range tr.Traces {
		if rec.StartUnixUS >= since.UnixMicro() {
			out = append(out, rec)
		}
	}
	return out, nil
}

// traceStats summarizes cdsd request traces: every stage span's duration
// by name, each root's self time (root duration minus the part its stage
// spans cover), and the reconciliation verdict that every stage span lies
// within its root.
type traceStats struct {
	spans    []span // stage spans, plus one "root" span per trace
	self     []time.Duration
	coverage []float64 // covered/root per trace
	misfits  int
}

// spanSlackUS absorbs the microsecond truncation of span offsets and
// durations on the wire.
const spanSlackUS = 2

func summarizeTraces(recs []*obs.TraceRecord) *traceStats {
	ts := &traceStats{}
	for op, rec := range recs {
		ts.spans = append(ts.spans, span{op, "root", 0, rec.DurUS * 1000})
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, sp := range rec.Spans {
			ts.spans = append(ts.spans, span{op, sp.Name, sp.StartUS * 1000, sp.DurUS * 1000})
			if sp.StartUS < 0 || sp.StartUS+sp.DurUS > rec.DurUS+spanSlackUS {
				ts.misfits++
			}
			ivs = append(ivs, iv{sp.StartUS, sp.StartUS + sp.DurUS})
		}
		// Union of the stage intervals, clipped to the root.
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		var covered, end int64
		for _, v := range ivs {
			lo, hi := max(v.lo, end, 0), min(v.hi, rec.DurUS)
			if hi > lo {
				covered += hi - lo
			}
			end = max(end, v.hi)
		}
		ts.self = append(ts.self, time.Duration(rec.DurUS-covered)*time.Microsecond)
		if rec.DurUS > 0 {
			ts.coverage = append(ts.coverage, float64(covered)/float64(rec.DurUS))
		}
	}
	return ts
}

// counter sets name to after-before for the /metrics family, summed over
// its labels, when cdsd exports the family.
func (m layerSet) counter(name string, before, after metrics.Scrape, family string) {
	if slices.Contains(after.Families(), family) {
		m[name] = metric{after.Sum(family) - before.Sum(family), "count"}
	}
}
