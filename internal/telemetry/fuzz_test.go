package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSanitizeID: an inbound request ID is either refused ("") or kept
// byte for byte; a kept one is 1-128 bytes of '!'..'~' without '"', and
// sanitizing it again changes nothing.
func FuzzSanitizeID(f *testing.F) {
	for _, s := range []string{"", "r-abc-1", "has space", `quo"te`, "tab\t", "ünï", "\x7f",
		strings.Repeat("x", 128), strings.Repeat("x", 129), "!~"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := SanitizeID(s)
		if got == "" {
			return
		}
		if got != s {
			t.Fatalf("SanitizeID(%q) = %q, want the input or \"\"", s, got)
		}
		if len(got) > 128 {
			t.Fatalf("SanitizeID kept %d bytes", len(got))
		}
		for i := 0; i < len(got); i++ {
			if c := got[i]; c < '!' || c > '~' || c == '"' {
				t.Fatalf("SanitizeID(%q) kept byte %#x", s, c)
			}
		}
		if again := SanitizeID(got); again != got {
			t.Fatalf("SanitizeID is not idempotent on %q: %q", got, again)
		}
	})
}

// FuzzExpositionRoundTrip: a registry whose counter and histogram carry
// fuzzed label values and help text exposes bytes that ParseExposition
// accepts and that give back the same help, label values and values.
func FuzzExpositionRoundTrip(f *testing.F) {
	f.Add("worker", "ok", "x", "y", "help text", "histogram help", uint16(3), uint16(250))
	f.Add(`back\slash`, `quo"te`, "new\nline", "", `trailing\`, "a\\nb", uint16(0), uint16(0))
	f.Add("a\x1fb", "c", "a", "b\x1fc", "tab\tin help", "cr\r", uint16(1), uint16(65535))
	f.Add("}", `{a="b"}`, " ", "le", "# HELP x y", "\n\n", uint16(7), uint16(1))
	f.Add("ünï\xff", "\x00", "=", ",", "  lead", "trail  ", uint16(2), uint16(9))
	f.Fuzz(func(t *testing.T, a, b, c, d, help, hhelp string, n, ms uint16) {
		reg := NewRegistry()
		ctr := reg.NewCounter("fz_total", help, "a", "b")
		ctr.Add(float64(n), a, b)
		ctr.Add(float64(n)+1, c, d)
		h := reg.NewHistogram("fz_seconds", hhelp, []float64{0.01, 0.1, 1}, "l")
		h.Observe(float64(ms)/1000, a)
		var buf bytes.Buffer
		if _, err := reg.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(buf.Bytes())
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, buf.Bytes())
		}
		cf, hf := FindFamily(fams, "fz_total"), FindFamily(fams, "fz_seconds")
		if cf == nil || hf == nil {
			t.Fatalf("families missing from\n%s", buf.Bytes())
		}
		if cf.Help != help || hf.Help != hhelp {
			t.Fatalf("help %q / %q came back as %q / %q", help, hhelp, cf.Help, hf.Help)
		}
		want := map[[2]string]float64{{a, b}: float64(n), {c, d}: float64(n) + 1}
		if a == c && b == d {
			want = map[[2]string]float64{{a, b}: 2*float64(n) + 1}
		}
		got := map[[2]string]float64{}
		for _, s := range cf.Samples {
			if len(s.Labels) != 2 {
				t.Fatalf("counter sample labels %q, want a and b", s.Labels)
			}
			got[[2]string{s.Labels["a"], s.Labels["b"]}] += s.Value
		}
		if len(got) != len(want) {
			t.Fatalf("counter series %v, want %v\n%s", got, want, buf.Bytes())
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("counter series %q = %v, want %v\n%s", k, got[k], v, buf.Bytes())
			}
		}
		if cnt := hf.Sum(map[string]string{"l": a}); cnt != 1 {
			t.Fatalf("histogram count for l=%q is %v, want 1\n%s", a, cnt, buf.Bytes())
		}
		for _, s := range hf.Samples {
			if s.Labels["l"] != a {
				t.Fatalf("histogram sample %s has l=%q, want %q", s.Name, s.Labels["l"], a)
			}
			if s.Name == "fz_seconds_sum" && s.Value != float64(ms)/1000 {
				t.Fatalf("histogram sum %v, want %v", s.Value, float64(ms)/1000)
			}
		}
	})
}
