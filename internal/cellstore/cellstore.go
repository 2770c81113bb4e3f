// Package cellstore is a durable, content-addressed result store with
// end-to-end integrity checking. Each record is one opaque JSON payload
// filed under a caller-chosen key; on disk it is wrapped in an envelope
// carrying the store format version, a schema pin, the key itself, and a
// SHA-256 over the canonical (compacted) payload bytes. Every write goes
// through internal/atomicio, and every read re-verifies the checksum, the
// schema pin, and the key before the payload is trusted.
//
// Integrity failures never fail the caller and never destroy evidence: a
// record that is truncated, bit-flipped, empty, mis-filed, or written by a
// different schema version is moved (never deleted) into a quarantine/
// subdirectory with its reason appended to quarantine/quarantine.log, and
// the read reports a plain miss so the caller regenerates the data. Open
// performs that verification over the whole store up front and reports what
// it found.
//
// Disk use is bounded by an optional byte-budget LRU evictor whose recency
// state lives in an append-only journal (journal/atime.log). The journal is
// crash-tolerant by construction: it holds only addresses in touch order,
// a torn final line fails address validation and is ignored, and a lost
// journal degrades to scan-order recency, never to data loss.
//
// The store assumes a single process per directory (the harness and the
// serving layer both open it once and share the handle); it is safe for any
// number of goroutines within that process.
package cellstore

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dylect/internal/atomicio"
)

// formatVersion is the on-disk envelope format. Bumping it quarantines (not
// deletes) every record written by older store code.
const formatVersion = 1

// Subdirectories of a store. Records are sharded by the first byte of the
// address so a large store does not pile every file into one directory.
const (
	recordsDir    = "records"
	quarantineDir = "quarantine"
	journalSubdir = "journal"
	recordExt     = ".cell"
	quarantineLog = "quarantine.log"
)

// Quarantine reasons. Stable strings: they appear in the quarantine log,
// the stats map, and tests.
const (
	ReasonEmpty      = "empty"
	ReasonUnparsable = "unparseable"
	ReasonFormat     = "format-mismatch"
	ReasonSchema     = "schema-mismatch"
	ReasonChecksum   = "checksum-mismatch"
	ReasonMisplaced  = "misplaced"
	ReasonKey        = "key-mismatch"
	ReasonOrphan     = "orphaned-temp"
	ReasonForeign    = "foreign-file"
)

// envelope is the on-disk record wrapper. Payload is stored compacted; the
// checksum is computed over the compacted payload bytes so re-formatting by
// tools cannot fake (or mask) corruption.
//
// EncodeEnvelope encodes an envelope without its payload, which omitempty
// leaves out, and appends the payload where encoding it would put it, last:
// encoding the payload as a json.RawMessage would only validate and compact
// it again.
type envelope struct {
	Format  int             `json:"format"`
	Schema  string          `json:"schema"`
	Key     string          `json:"key"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Options configures Open.
type Options struct {
	// Dir is the store root. Created if missing.
	Dir string
	// Schema pins the payload producer's schema version: records carrying a
	// different schema are quarantined, never returned.
	Schema string
	// MaxBytes bounds the total size of record payloads on disk; 0 means
	// unbounded. When exceeded, least-recently-used records are evicted
	// (evictions delete — they are policy, not corruption; corrupt records
	// are quarantined instead).
	MaxBytes int64
	// Log receives one line per integrity event (quarantine, eviction,
	// journal trouble). Nil discards.
	Log io.Writer
	// Now stamps quarantine-log lines; nil uses wall time. The stamp is
	// operator forensics only — it never feeds a deterministic export.
	Now func() time.Time
	// Observer, when set, receives one call per store operation: op is
	// "hit", "miss", "put", "eviction", or "quarantine", and detail carries
	// the quarantine reason (empty for other ops). It is called
	// synchronously, possibly while the store's lock is held — it must be
	// fast and must not call back into the store. The serving layer feeds
	// its /metrics counters from it.
	Observer func(op, detail string)
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Records and Bytes describe the live (verified, unevicted) store.
	Records int
	Bytes   int64
	// Hits/Misses/Puts/Evictions count this process's operations.
	Hits      int
	Misses    int
	Puts      int
	Evictions int
	// Quarantined counts records quarantined by this process (at Open and
	// on read); Reasons breaks them down by reason.
	Quarantined int
	Reasons     map[string]int
	// OpenVerified and OpenQuarantined report the Open-time scan alone.
	OpenVerified    int
	OpenQuarantined int
}

// entry is one live record in the in-memory index.
type entry struct {
	addr string
	key  string
	size int64
	elem *list.Element // position in the recency list (front = coldest)
}

// Store is an open cell store. All methods are safe for concurrent use.
type Store struct {
	dir      string
	schema   string
	maxBytes int64
	log      io.Writer
	now      func() time.Time
	obs      func(op, detail string)

	mu      sync.Mutex
	index   map[string]*entry // addr -> entry
	recency *list.List        // of *entry, front = least recently used
	bytes   int64
	journal *journal
	stats   Stats
}

// addrOf content-addresses a key: the address is the hex SHA-256 of the key
// string, so record placement is a pure function of identity and two
// distinct keys can never collide on a file.
func addrOf(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// payloadSum hashes the canonical (compacted) payload bytes. valid reports
// that the caller already knows payload is valid JSON (see compacted).
func payloadSum(payload []byte, valid bool) (string, error) {
	canon, err := compacted(payload, valid)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(canon)
	return hex.EncodeToString(h[:]), nil
}

// compacted returns payload's canonical (compacted) form. json.Compact only
// elides the insignificant space, tab, CR and LF bytes between tokens, so
// valid JSON holding none of those bytes is its own compact form and is
// returned as is. Any other payload goes through json.Compact, which also
// rejects invalid JSON.
func compacted(payload []byte, valid bool) ([]byte, error) {
	if valid && !bytes.ContainsAny(payload, " \t\r\n") {
		return payload, nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// recordPath places an address under records/, sharded by its first byte.
func (s *Store) recordPath(addr string) string {
	return filepath.Join(s.dir, recordsDir, addr[:2], addr+recordExt)
}

// Open opens (or initializes) the store at opts.Dir and verifies every
// record: parse, format, schema pin, address/key agreement, checksum.
// Records failing any check are quarantined with a logged reason. The
// returned store has replayed the recency journal and enforced the byte
// budget.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("cellstore: no directory given")
	}
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Store{
		dir:      opts.Dir,
		schema:   opts.Schema,
		maxBytes: opts.MaxBytes,
		log:      logw,
		now:      now,
		obs:      opts.Observer,
		index:    make(map[string]*entry),
		recency:  list.New(),
	}
	s.stats.Reasons = make(map[string]int)
	for _, sub := range []string{recordsDir, quarantineDir, journalSubdir} {
		if err := os.MkdirAll(filepath.Join(s.dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cellstore: %w", err)
		}
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	order, j, err := openJournal(filepath.Join(s.dir, journalSubdir, "atime.log"))
	if err != nil {
		return nil, fmt.Errorf("cellstore: journal: %w", err)
	}
	s.journal = j
	// Replay: each journal line moves its record to most-recent. Addresses
	// that no longer exist (evicted, quarantined, torn final line) are
	// skipped — the journal refines recency, it never defines membership.
	for _, addr := range order {
		if e, ok := s.index[addr]; ok {
			s.recency.MoveToBack(e.elem)
		}
	}
	s.maybeCompactJournal()
	s.evictToBudget()
	return s, nil
}

// scan walks records/ verifying everything it finds. Called once from Open,
// before the store is shared, so it runs unlocked.
func (s *Store) scan() error {
	root := filepath.Join(s.dir, recordsDir)
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return fmt.Errorf("cellstore: scan: %w", err)
	}
	// Sorted order gives deterministic base recency for records the journal
	// does not mention.
	sort.Strings(paths)
	for _, path := range paths {
		base := filepath.Base(path)
		switch {
		case strings.HasPrefix(base, "."):
			// A leftover atomicio temp file: a write was interrupted before
			// its rename. The destination record (if any) is intact; the
			// temp holds an unnamed partial write. Preserve it as evidence.
			s.quarantineFile(path, ReasonOrphan, "interrupted atomic write")
			continue
		case !strings.HasSuffix(base, recordExt):
			s.quarantineFile(path, ReasonForeign, "not a record file")
			continue
		}
		addr := strings.TrimSuffix(base, recordExt)
		env, size, reason, detail := s.verifyFile(path, addr)
		if reason != "" {
			s.quarantineFile(path, reason, detail)
			continue
		}
		e := &entry{addr: addr, key: env.Key, size: size}
		e.elem = s.recency.PushBack(e)
		s.index[addr] = e
		s.bytes += size
		s.stats.OpenVerified++
	}
	s.stats.Records = len(s.index)
	s.stats.Bytes = s.bytes
	return nil
}

// verifyFile runs the full integrity check on one record file. It returns
// the parsed envelope and file size on success, or a quarantine reason and
// human detail on failure.
func (s *Store) verifyFile(path, addr string) (env envelope, size int64, reason, detail string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return env, 0, ReasonUnparsable, "unreadable: " + err.Error()
	}
	env, reason, detail = verifyEnvelope(s.schema, data)
	if reason != "" {
		return env, 0, reason, detail
	}
	if addrOf(env.Key) != addr {
		return env, 0, ReasonMisplaced, fmt.Sprintf("key %q does not address this file", env.Key)
	}
	return env, int64(len(data)), "", ""
}

// verifyEnvelope checks everything about an envelope that does not depend on
// where it sits on disk: parse, format version, schema pin, and the payload
// checksum. It returns a quarantine reason ("" = verified).
func verifyEnvelope(schema string, data []byte) (env envelope, reason, detail string) {
	if len(data) == 0 {
		return env, ReasonEmpty, "zero-byte record"
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return env, ReasonUnparsable, "envelope does not parse: " + err.Error()
	}
	if env.Format != formatVersion {
		return env, ReasonFormat, fmt.Sprintf("record format %d, store speaks %d", env.Format, formatVersion)
	}
	if env.Schema != schema {
		return env, ReasonSchema, fmt.Sprintf("record schema %q, store pinned to %q", env.Schema, schema)
	}
	// json.Unmarshal validated every byte of data and copied the payload
	// value into env.Payload, so a non-empty payload is valid JSON.
	sum, err := payloadSum(env.Payload, len(env.Payload) > 0)
	if err != nil {
		return env, ReasonUnparsable, "payload does not parse: " + err.Error()
	}
	if sum != env.SHA256 {
		return env, ReasonChecksum, fmt.Sprintf("payload hashes to %s, record claims %s", sum[:12], clip(env.SHA256, 12))
	}
	return env, "", ""
}

// EncodeEnvelope wraps payload (valid JSON) in the store's on-disk envelope
// for key: the exact bytes Put would write. The fabric's workers use it to
// ship a record to the coordinator in a form the coordinator can verify with
// DecodeEnvelope before trusting a byte of it.
func EncodeEnvelope(schema, key string, payload []byte) ([]byte, error) {
	canon, err := compacted(payload, json.Valid(payload))
	if err != nil {
		return nil, fmt.Errorf("cellstore: encode %q: payload is not valid JSON: %w", key, err)
	}
	sum := sha256.Sum256(canon)
	head := envelope{
		Format: formatVersion,
		Schema: schema,
		Key:    key,
		SHA256: hex.EncodeToString(sum[:]),
	}
	// No HTML escaping: the checksum covers the compacted payload as is,
	// and escaping <, >, & or U+2028/U+2029 inside it would change those
	// bytes and fail verification.
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&head); err != nil {
		return nil, err
	}
	// The head ends in "}\n"; the compact payload goes in as the last member.
	data := append(bytes.TrimSuffix(out.Bytes(), []byte("}\n")), `,"payload":`...)
	data = append(data, canon...)
	return append(data, '}'), nil
}

// DecodeEnvelope verifies an envelope received off the wire — parse, format,
// schema pin, payload checksum, and that it is filed under exactly wantKey —
// and returns the verified payload. The error names the failed check with a
// Reason* constant, so transport-level verification failures count under the
// same taxonomy as on-disk quarantines.
func DecodeEnvelope(schema, wantKey string, data []byte) ([]byte, error) {
	env, reason, detail := verifyEnvelope(schema, data)
	if reason != "" {
		return nil, fmt.Errorf("cellstore: envelope %s: %s", reason, detail)
	}
	if env.Key != wantKey {
		return nil, fmt.Errorf("cellstore: envelope %s: carries key %q, want %q", ReasonKey, env.Key, wantKey)
	}
	// json.Unmarshal copied the payload out of data, so it aliases nothing
	// the caller holds.
	return env.Payload, nil
}

// clip bounds a possibly-garbage string for log lines.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// observe reports one store operation to the attached observer, if any.
func (s *Store) observe(op, detail string) {
	if s.obs != nil {
		s.obs(op, detail)
	}
}

// quarantineFile moves a bad file into quarantine/ (never deleting it) and
// logs what moved and why. Name collisions get a numeric suffix so repeated
// corruption of the same address keeps every specimen.
func (s *Store) quarantineFile(path, reason, detail string) {
	base := filepath.Base(path)
	dst := filepath.Join(s.dir, quarantineDir, base)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dst); err != nil {
		// The file vanished (or the move failed); log it — the read path
		// already treats it as a miss either way.
		fmt.Fprintf(s.log, "cellstore: quarantine %s (%s): move failed: %v\n", base, reason, err)
		return
	}
	s.stats.Quarantined++
	s.stats.Reasons[reason]++
	s.observe("quarantine", reason)
	if s.journal == nil {
		s.stats.OpenQuarantined++ // journal opens after the scan
	}
	line := fmt.Sprintf("time=%s file=%s reason=%s detail=%q\n",
		s.now().UTC().Format(time.RFC3339), base, reason, detail)
	s.appendQuarantineLog(line)
	fmt.Fprintf(s.log, "cellstore: quarantined %s: %s (%s)\n", base, reason, detail)
}

// appendQuarantineLog appends one line to quarantine/quarantine.log through
// atomicio.AppendFile, so the reason line for a quarantined specimen is as
// durable as the record writes themselves — a crash right after a
// quarantine cannot keep the specimen but lose the evidence of why it
// moved. The log is evidence, not state: append errors are reported, not
// fatal.
func (s *Store) appendQuarantineLog(line string) {
	path := filepath.Join(s.dir, quarantineDir, quarantineLog)
	if err := atomicio.AppendFile(path, []byte(line), 0o644); err != nil {
		fmt.Fprintf(s.log, "cellstore: quarantine log: %v\n", err)
	}
}

// Get returns the verified payload stored under key, reporting whether one
// exists. A record that exists but fails verification is quarantined and
// reported as a miss, so the caller's only recovery path — regenerate and
// Put — is also the correct one.
func (s *Store) Get(key string) ([]byte, bool) {
	addr := addrOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[addr]
	if !ok {
		s.stats.Misses++
		s.observe("miss", "")
		return nil, false
	}
	path := s.recordPath(addr)
	env, size, reason, detail := s.verifyFile(path, addr)
	if reason != "" {
		s.dropLocked(e)
		s.quarantineFile(path, reason, detail)
		s.stats.Misses++
		s.observe("miss", "")
		return nil, false
	}
	if env.Key != key {
		// A content-addressing collision is cryptographically impossible;
		// reaching here means the index is stale. Treat as a miss.
		s.stats.Misses++
		s.observe("miss", "")
		return nil, false
	}
	e.size = size
	s.touchLocked(e)
	s.stats.Hits++
	s.observe("hit", "")
	out := make([]byte, len(env.Payload))
	copy(out, env.Payload)
	return out, true
}

// Has reports whether a verified record for key existed at Open (or was
// Put since) without reading or re-verifying it. Cost estimation uses it;
// Get remains the only trusted read.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[addrOf(key)]
	return ok
}

// Put stores payload (which must be valid JSON) under key, atomically
// replacing any previous record, then enforces the byte budget.
func (s *Store) Put(key string, payload []byte) error {
	data, err := EncodeEnvelope(s.schema, key, payload)
	if err != nil {
		return fmt.Errorf("cellstore: put %q: %w", key, err)
	}
	addr := addrOf(key)
	path := s.recordPath(addr)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cellstore: put %q: %w", key, err)
	}
	if err := atomicio.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("cellstore: put %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[addr]; ok {
		s.bytes += int64(len(data)) - e.size
		e.size = int64(len(data))
		s.touchLocked(e)
	} else {
		e := &entry{addr: addr, key: key, size: int64(len(data))}
		e.elem = s.recency.PushBack(e)
		s.index[addr] = e
		s.bytes += e.size
		s.journalTouch(addr)
	}
	s.stats.Puts++
	s.observe("put", "")
	s.evictToBudgetLocked()
	return nil
}

// touchLocked marks an entry most-recently-used and journals the touch.
func (s *Store) touchLocked(e *entry) {
	s.recency.MoveToBack(e.elem)
	s.journalTouch(e.addr)
}

// journalTouch appends to the atime journal (best-effort: recency is an
// optimization, losing a touch cannot corrupt anything) and compacts the
// journal when it grows far past the live set.
func (s *Store) journalTouch(addr string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.append(addr); err != nil {
		fmt.Fprintf(s.log, "cellstore: journal: %v\n", err)
	}
	s.maybeCompactJournal()
}

// maybeCompactJournal rewrites the journal to one line per live record when
// appends have grown it well past the live set.
func (s *Store) maybeCompactJournal() {
	if s.journal == nil || s.journal.lines <= 4*len(s.index)+1024 {
		return
	}
	order := make([]string, 0, s.recency.Len())
	for el := s.recency.Front(); el != nil; el = el.Next() {
		order = append(order, el.Value.(*entry).addr)
	}
	if err := s.journal.compact(order); err != nil {
		fmt.Fprintf(s.log, "cellstore: journal compact: %v\n", err)
	}
}

// dropLocked removes an entry from the in-memory index (the file is the
// caller's problem: quarantined or already evicted).
func (s *Store) dropLocked(e *entry) {
	delete(s.index, e.addr)
	s.recency.Remove(e.elem)
	s.bytes -= e.size
}

// evictToBudget enforces MaxBytes at Open time (store not yet shared).
func (s *Store) evictToBudget() { s.mu.Lock(); defer s.mu.Unlock(); s.evictToBudgetLocked() }

// evictToBudgetLocked deletes least-recently-used records until the store
// fits its byte budget. The most recent record always survives: evicting
// the record just written would be pure churn.
func (s *Store) evictToBudgetLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && s.recency.Len() > 1 {
		e := s.recency.Front().Value.(*entry)
		if err := os.Remove(s.recordPath(e.addr)); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(s.log, "cellstore: evict %s: %v\n", e.addr[:12], err)
			return // do not spin on an undeletable file
		}
		s.dropLocked(e)
		s.stats.Evictions++
		s.observe("eviction", "")
		fmt.Fprintf(s.log, "cellstore: evicted %s (%d bytes) to fit %d-byte budget\n",
			e.addr[:12], e.size, s.maxBytes)
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.index)
	st.Bytes = s.bytes
	st.Reasons = make(map[string]int, len(s.stats.Reasons))
	for k, v := range s.stats.Reasons {
		st.Reasons[k] = v
	}
	return st
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// QuarantineLogPath returns the path of the quarantine evidence log.
func (s *Store) QuarantineLogPath() string {
	return filepath.Join(s.dir, quarantineDir, quarantineLog)
}

// Close releases the journal handle. Operations after Close still work;
// their recency touches are simply no longer journaled.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.close()
	s.journal = nil
	return err
}
