package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"attila/internal/obsv"
)

// TestOldFilesWithTenantKeysLoad pins that files written when jobs
// carried "tenant" and "priority" keys still load, because every reader
// decodes with plain encoding/json, which ignores unknown keys. The
// fixtures under testdata/ were written by that older jobd: a drained
// server's state file (one job preempted with a checkpoint, one
// queued), the preempted job's manifest, and a fleet queue spec.
func TestOldFilesWithTenantKeysLoad(t *testing.T) {
	_, cleanCSV := cleanRun(t)
	dir := t.TempDir()
	for _, f := range []string{"jobd-state.json", "checkpoints/compat-1.ckpt"} {
		data, err := os.ReadFile(filepath.Join("testdata/parent-drained", f))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, f)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Options{OutDir: dir, Workers: 1, Retries: -1, Logf: t.Logf})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sw, err := s.SweepByRef("compat")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitSweep(ctx, sw); err != nil {
		t.Fatal(err)
	}
	if st := s.SweepStatus(sw); st.Done != 2 {
		t.Fatalf("resumed sweep: %d done of %d, status %+v", st.Done, st.Total, st)
	}
	for _, name := range []string{"compat-1", "compat-2"} {
		csv, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv, cleanCSV) {
			t.Errorf("%s.csv differs from the clean run", name)
		}
	}

	m, err := obsv.LoadManifest("testdata/parent-drained/compat-1-manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.State != string(StatePreempted) || m.Config != "baseline" || m.LastCheckpoint <= 0 {
		t.Errorf("old manifest decoded as state %q config %q checkpoint %d",
			m.State, m.Config, m.LastCheckpoint)
	}

	data, err := os.ReadFile("testdata/fleet-queue-compat-1.json")
	if err != nil {
		t.Fatal(err)
	}
	var queued JobSpec
	if err := json.Unmarshal(data, &queued); err != nil {
		t.Fatal(err)
	}
	norm, err := NormalizeSweep(SweepSpec{Name: "compat", Jobs: []JobSpec{queued}})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := testSpec("compat-1").normalize(JobSpec{})
	if norm[0] != want {
		t.Errorf("old fleet queue spec normalized to %+v, want %+v", norm[0], want)
	}

	// A submit body carrying the keys is accepted and the keys ignored.
	// No Start: the job only needs admitting.
	fresh := New(Options{OutDir: t.TempDir(), Workers: 1})
	srv := httptest.NewServer(fresh.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"name":"with-tenant","tenant":"a","priority":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with tenant/priority keys: status %d, want 202", resp.StatusCode)
	}
	fresh.Close()
}
