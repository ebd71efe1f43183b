package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/ising-machines/saim/service"
)

// server is one saimserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	exited chan error
}

// startServer execs the prebuilt saimserve on a free loopback port and
// returns once /v1/healthz answers 200.
func startServer(bin string, args ...string) (*server, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(filepath.Join(bin, "saimserve"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	// The server must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan error, 1), client: newClient()}
	addr := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			} else if strings.Contains(line, "panic") || strings.Contains(line, "error") {
				fmt.Fprintln(os.Stderr, "saimserve:", line)
			}
		}
	}()
	go func() {
		<-logDone // Wait must not run before the pipe is drained
		s.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case err := <-s.exited:
		return nil, fmt.Errorf("saimserve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("saimserve did not report its address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("saimserve not healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// newClient returns an HTTP client holding at most two connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		s.client.CloseIdleConnections()
		return nil
	case <-time.After(40 * time.Second):
		s.kill()
		return fmt.Errorf("saimserve ignored SIGTERM")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.client.CloseIdleConnections()
}

func (s *server) stats(ctx context.Context) (service.Stats, error) {
	var st service.Stats
	_, body, err := s.do(ctx, http.MethodGet, "/statusz", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// do sends one request and returns the status and body.
func (s *server) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// envelope and wireResult mirror the saimserve JSON bodies the client
// reads.
type envelope struct {
	ID          string `json:"id"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

type wireResult struct {
	Feasible   bool     `json:"feasible"`
	Cost       *float64 `json:"cost"`
	Assignment []int    `json:"assignment"`
	Error      string   `json:"error"`
}

func parseStamp(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}
