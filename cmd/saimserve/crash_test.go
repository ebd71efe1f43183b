package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles the test binary as a real saimserve when invoked with
// SAIMSERVE_CHILD=1 (the helper-process pattern): the crash-recovery test
// execs itself, SIGKILLs the child mid-solve, and restarts it against the
// same journal — a genuine process death, not a simulated one.
func TestMain(m *testing.M) {
	if os.Getenv("SAIMSERVE_CHILD") == "1" {
		var args []string
		if err := json.Unmarshal([]byte(os.Getenv("SAIMSERVE_ARGS")), &args); err != nil {
			fmt.Fprintln(os.Stderr, "saimserve child: bad SAIMSERVE_ARGS:", err)
			os.Exit(2)
		}
		if err := run(args); err != nil {
			fmt.Fprintln(os.Stderr, "saimserve child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startChild execs this test binary as a saimserve process bound to an
// ephemeral port and returns the command plus the server's base URL,
// parsed from the "listening on <addr>" log line.
func startChild(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SAIMSERVE_CHILD=1", "SAIMSERVE_ARGS="+string(enc))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if testing.Verbose() {
				fmt.Fprintf(os.Stderr, "[child %d] %s\n", cmd.Process.Pid, line)
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := line[i+len("listening on "):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("child never logged its listening address")
		return nil, ""
	}
}

// TestCrashRecoveryKill9 is the end-to-end durability acceptance test: a
// real saimserve process takes jobs into a durable journal, dies by
// SIGKILL mid-solve, and a fresh process on the same directory re-queues
// every unfinished job, warm-starts each from its last checkpoint, and
// completes them all with results no worse than the pre-kill best.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level crash test skipped in -short mode")
	}
	dir := t.TempDir()
	childArgs := []string{
		"-addr", "127.0.0.1:0",
		"-data", dir,
		"-fsync", "always",
		"-workers", "4",
		"-drain", "10s",
	}

	child1, url1 := startChild(t, childArgs...)
	defer func() {
		_ = child1.Process.Kill()
	}()

	// Four distinct long-running jobs: a huge iteration budget bounded by
	// a wall-clock limit, so each is guaranteed to still be mid-solve at
	// kill time and to terminate promptly after recovery.
	const njobs = 4
	submit := `{"solver":"saim","no_dedup":true,"options":{"seed":%d,"iterations":65536,"sweeps_per_run":80000,"time_limit_ms":4000},"model":` + knapWire + `}`
	ids := make([]string, 0, njobs)
	for i := 0; i < njobs; i++ {
		resp, body := post(t, url1+"/v1/jobs", fmt.Sprintf(submit, 100+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		var env jobEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, env.ID)
	}

	// Wait until every job has reported a feasible best — the same
	// improvement event that journals its first checkpoint (fsync=always
	// makes it durable before the status line shows it).
	preKill := make(map[string]float64, njobs)
	deadline := time.Now().Add(30 * time.Second)
	for len(preKill) < njobs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs made progress before the kill window", len(preKill), njobs)
		}
		for _, id := range ids {
			if _, ok := preKill[id]; ok {
				continue
			}
			resp, body := get(t, url1+"/v1/jobs/"+id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %s: %d %s", id, resp.StatusCode, body)
			}
			var env jobEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			if env.State == "running" && env.Progress != nil && env.Progress.BestCost != nil {
				preKill[id] = *env.Progress.BestCost
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// kill -9: no drain, no shutdown record, no flushed buffers beyond
	// what fsync=always already forced.
	if err := child1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = child1.Wait()

	child2, url2 := startChild(t, childArgs...)
	defer func() {
		_ = child2.Process.Kill()
	}()

	// Every journaled job must be visible immediately and run to
	// completion, each final cost at least as good as its last pre-kill
	// checkpoint (the warm start's never-worse-than-seed guarantee).
	deadline = time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished after recovery", id)
			}
			resp, body := get(t, url2+"/v1/jobs/"+id+"/result")
			if resp.StatusCode == http.StatusConflict {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result %s after recovery: %d %s", id, resp.StatusCode, body)
			}
			var res wireResult
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("result %s: %s: %v", id, body, err)
			}
			if !res.Feasible || res.Cost == nil {
				t.Fatalf("recovered job %s finished infeasible: %s", id, body)
			}
			if *res.Cost > preKill[id]+1e-9 {
				t.Fatalf("recovered job %s cost %v worse than pre-kill checkpoint %v", id, *res.Cost, preKill[id])
			}
			break
		}
	}

	// The second instance shuts down cleanly.
	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- child2.Wait() }()
	select {
	case err := <-waitCh:
		if err != nil {
			t.Fatalf("child exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("child did not drain after SIGTERM")
	}
}
