package cellstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openTest(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Schema: "test/1", MaxBytes: budget})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func payload(i int) []byte {
	return []byte(fmt.Sprintf(`{"cell":%d,"ipc":1.5,"note":"payload body %d"}`, i, i))
}

// recordFile locates the on-disk file of a key, failing if absent.
func recordFile(t *testing.T, s *Store, key string) string {
	t.Helper()
	path := s.recordPath(addrOf(key))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("record for %q missing: %v", key, err)
	}
	return path
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	if err := s.Put("k1", payload(1)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok {
		t.Fatal("stored record missed")
	}
	if !bytes.Equal(got, payload(1)) {
		t.Fatalf("payload mangled: %s", got)
	}
	if _, ok := s.Get("k2"); ok {
		t.Fatal("phantom hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Records != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenServesVerifiedRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := openTest(t, dir, 0)
	st := s2.Stats()
	if st.OpenVerified != 5 || st.OpenQuarantined != 0 {
		t.Fatalf("open scan = %+v", st)
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(fmt.Sprintf("k%d", i))
		if !ok || !bytes.Equal(got, payload(i)) {
			t.Fatalf("k%d lost across reopen", i)
		}
	}
}

// corruptions is the corruption matrix: each mutator damages a stored
// record file in a distinct way and names the reason the store must report.
var corruptions = []struct {
	name   string
	reason string
	mutate func(t testing.TB, path string)
}{
	{"truncated", ReasonUnparsable, func(t testing.TB, path string) {
		data, _ := os.ReadFile(path)
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"payload-bit-flip", ReasonChecksum, func(t testing.TB, path string) {
		data, _ := os.ReadFile(path)
		i := bytes.Index(data, []byte(`"payload":`))
		if i < 0 {
			t.Fatal("no payload field")
		}
		// Flip a digit inside the payload body: JSON stays valid, bytes lie.
		j := bytes.IndexAny(data[i:], "0123456789")
		data[i+j] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"checksum-bit-flip", ReasonChecksum, func(t testing.TB, path string) {
		data, _ := os.ReadFile(path)
		i := bytes.Index(data, []byte(`"sha256":"`))
		if i < 0 {
			t.Fatal("no sha256 field")
		}
		p := i + len(`"sha256":"`)
		if data[p] == '0' {
			data[p] = '1'
		} else {
			data[p] = '0'
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"empty-file", ReasonEmpty, func(t testing.TB, path string) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"schema-mismatch", ReasonSchema, func(t testing.TB, path string) {
		data, _ := os.ReadFile(path)
		out := bytes.Replace(data, []byte(`"schema":"test/1"`), []byte(`"schema":"test/0"`), 1)
		if bytes.Equal(out, data) {
			t.Fatal("schema field not found")
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestCorruptionMatrixOnGet damages a record each way in turn and checks the
// read path quarantines it with the right reason and reports a plain miss.
func TestCorruptionMatrixOnGet(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, 0)
			if err := s.Put("victim", payload(7)); err != nil {
				t.Fatal(err)
			}
			path := recordFile(t, s, "victim")
			tc.mutate(t, path)

			if _, ok := s.Get("victim"); ok {
				t.Fatal("corrupt record served")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt record left in records/")
			}
			st := s.Stats()
			if st.Reasons[tc.reason] != 1 {
				t.Fatalf("reason %q not counted: %+v", tc.reason, st.Reasons)
			}
			logData, err := os.ReadFile(s.QuarantineLogPath())
			if err != nil || !strings.Contains(string(logData), "reason="+tc.reason) {
				t.Fatalf("quarantine log missing reason %q: %s (%v)", tc.reason, logData, err)
			}
			// The specimen survives in quarantine/ — never deleted.
			matches, _ := filepath.Glob(filepath.Join(dir, quarantineDir, "*"+recordExt+"*"))
			if len(matches) != 1 {
				t.Fatalf("quarantine holds %d specimens, want 1", len(matches))
			}
			// Regeneration heals: Put again, Get verifies again.
			if err := s.Put("victim", payload(7)); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("victim"); !ok || !bytes.Equal(got, payload(7)) {
				t.Fatal("regenerated record not served")
			}
		})
	}
}

// TestCorruptionMatrixOnOpen damages records before Open and checks the
// scan quarantines each with the right reason while clean records survive.
func TestCorruptionMatrixOnOpen(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, 0)
			if err := s.Put("victim", payload(7)); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("clean", payload(8)); err != nil {
				t.Fatal(err)
			}
			path := recordFile(t, s, "victim")
			s.Close()
			tc.mutate(t, path)

			s2 := openTest(t, dir, 0)
			st := s2.Stats()
			if st.OpenQuarantined != 1 || st.Reasons[tc.reason] != 1 {
				t.Fatalf("open scan = %+v", st)
			}
			if st.OpenVerified != 1 {
				t.Fatalf("clean record not verified: %+v", st)
			}
			if _, ok := s2.Get("victim"); ok {
				t.Fatal("corrupt record served after reopen")
			}
			if got, ok := s2.Get("clean"); !ok || !bytes.Equal(got, payload(8)) {
				t.Fatal("clean record lost")
			}
		})
	}
}

// TestOpenQuarantinesMisplacedAndOrphanFiles: a record renamed to the wrong
// address and a leftover atomic-write temp file are both quarantined.
func TestOpenQuarantinesMisplacedAndOrphanFiles(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	if err := s.Put("victim", payload(1)); err != nil {
		t.Fatal(err)
	}
	path := recordFile(t, s, "victim")
	s.Close()

	// Move the record to a different (valid-looking) address.
	wrong := addrOf("somewhere-else")
	wrongPath := filepath.Join(dir, recordsDir, wrong[:2], wrong+recordExt)
	if err := os.MkdirAll(filepath.Dir(wrongPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, wrongPath); err != nil {
		t.Fatal(err)
	}
	// Plant a torn atomic-write temp, as a SIGKILL mid-write leaves behind.
	tmp := filepath.Join(filepath.Dir(wrongPath), ".deadbeef.cell.tmp-123")
	if err := os.WriteFile(tmp, []byte(`{"format":1,"schema":"test/1","trunc`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, 0)
	st := s2.Stats()
	if st.Reasons[ReasonMisplaced] != 1 || st.Reasons[ReasonOrphan] != 1 {
		t.Fatalf("reasons = %+v", st.Reasons)
	}
	if st.OpenVerified != 0 {
		t.Fatalf("verified %d records, want 0", st.OpenVerified)
	}
}

// TestLRUEvictionRespectsBudgetAndRecency: the coldest records go first and
// touched records survive.
func TestLRUEvictionRespectsBudgetAndRecency(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	if err := s.Put("probe", payload(0)); err != nil {
		t.Fatal(err)
	}
	perRecord := s.Stats().Bytes // all records here are the same size
	s.Close()

	budget := perRecord*3 + perRecord/2 // room for 3 records
	s2 := openTest(t, dir, budget)
	for i := 1; i <= 3; i++ {
		if err := s2.Put(fmt.Sprintf("k%d", i), payload(0)); err != nil {
			t.Fatal(err)
		}
		// Keep "probe" hot so the k-records are always the colder ones.
		if _, ok := s2.Get("probe"); !ok {
			t.Fatalf("probe evicted at %d records", i)
		}
	}
	st := s2.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > budget {
		t.Fatalf("store over budget: %d > %d", st.Bytes, budget)
	}
	if _, ok := s2.Get("k1"); ok {
		t.Fatal("coldest record k1 survived eviction")
	}
	st = s2.Stats() // the k1 probe above counted a miss, not a quarantine
	if st.Quarantined != 0 {
		t.Fatalf("eviction was recorded as quarantine: %+v", st)
	}
	for _, k := range []string{"probe", "k2", "k3"} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("%s lost", k)
		}
	}
}

// TestJournalRecencySurvivesReopen: touches journaled in one process order
// eviction in the next.
func TestJournalRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	for i := 1; i <= 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload(0)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k1 last: scan order alone would evict it first on reopen.
	if _, ok := s.Get("k1"); !ok {
		t.Fatal("k1 missing")
	}
	perRecord := s.Stats().Bytes / 3
	s.Close()

	s2 := openTest(t, dir, 2*perRecord+perRecord/2)
	if s2.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s2.Stats().Evictions)
	}
	if _, ok := s2.Get("k1"); !ok {
		t.Fatal("recently-touched k1 evicted; journal recency lost")
	}
	if _, ok := s2.Get("k2"); ok {
		t.Fatal("cold k2 survived")
	}
}

// TestJournalToleratesTornTail: a partial final line (the crash shape for
// an append) is ignored, not fatal, and does not disturb membership.
func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	if err := s.Put("k1", payload(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	jpath := filepath.Join(dir, journalSubdir, "atime.log")
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(addrOf("k1")[:17]) // torn mid-address, no newline
	f.Close()

	s2 := openTest(t, dir, 0)
	if got, ok := s2.Get("k1"); !ok || !bytes.Equal(got, payload(1)) {
		t.Fatal("record lost behind torn journal")
	}
}

// TestJournalCompaction: heavy touch traffic triggers a rewrite that
// preserves recency and shrinks the file.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		s.Get(fmt.Sprintf("k%d", i%3))
	}
	s.mu.Lock()
	lines := s.journal.lines
	s.mu.Unlock()
	if lines > 4*3+1024 {
		t.Fatalf("journal never compacted: %d lines", lines)
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost across compaction", i)
		}
	}
}

// TestConcurrentReadersDuringEviction hammers Get from many goroutines
// while Puts force continuous eviction; under -race this is the
// reader-during-evict matrix entry. Every Get must either hit with intact
// bytes or miss — never serve a partial record, never quarantine a healthy
// evicted one.
func TestConcurrentReadersDuringEviction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	if err := s.Put("size-probe", payload(0)); err != nil {
		t.Fatal(err)
	}
	perRecord := s.Stats().Bytes
	s.Close()

	s2 := openTest(t, dir, 4*perRecord)
	const readers, keys, rounds = 8, 16, 200
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("k%d", (g+i)%keys)
				if got, ok := s2.Get(k); ok {
					want := payload((g + i) % keys)
					if !bytes.Equal(got, want) {
						t.Errorf("torn read for %s: %s", k, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			k := fmt.Sprintf("k%d", i%keys)
			if err := s2.Put(k, payload(i%keys)); err != nil {
				t.Errorf("put %s: %v", k, err)
				return
			}
		}
	}()
	wg.Wait()
	st := s2.Stats()
	if st.Quarantined != 0 {
		t.Fatalf("healthy records quarantined during eviction races: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatal("eviction never triggered; budget too loose for the test")
	}
}

// TestPutRejectsInvalidJSON: the store only files payloads it can
// canonicalize, otherwise the checksum oracle would be meaningless.
func TestPutRejectsInvalidJSON(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	if err := s.Put("bad", []byte(`{"unterminated`)); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	if st := s.Stats(); st.Puts != 0 || st.Records != 0 {
		t.Fatalf("failed put left state: %+v", st)
	}
}
