// Package obstest holds test helpers for telemetry output. It imports
// testing, so only _test files may import it: production binaries must
// not link the testing package.
package obstest

import (
	"regexp"
	"strings"
	"testing"
)

// expositionLine matches one Prometheus text-format sample line.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+]?[0-9].*)$`)

// ValidateExposition fails t on any line that is neither a comment nor
// a well-formed sample, and checks HELP/TYPE precede their family's
// samples. It lives outside the _test files so tests in every package
// validate their scrapes against the same contract.
func ValidateExposition(t *testing.T, body string) {
	t.Helper()
	seenSamples := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Errorf("blank line in exposition")
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 3 {
				t.Errorf("malformed comment line %q", line)
				continue
			}
			if seenSamples[fields[2]] {
				t.Errorf("%s after samples of %s", fields[1], fields[2])
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		seenSamples[name] = true
	}
}
