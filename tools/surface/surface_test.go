package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestSurvey runs the checker over the fixture module in testdata/mod,
// whose bench/ is a second module, one case per rule.
func TestSurvey(t *testing.T) {
	lines, flagged, err := survey(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rule, decl, users string
		flagged           bool
	}{
		{"a dead function is flagged", "internal/a func Dead", "", true},
		{"an interface method is not flagged", "internal/a method T.String", " implements fmt.Stringer", false},
		{"a json-tagged field is not flagged", "internal/a field T.Tagged", " json self", false},
		{"an unused untagged field is flagged", "internal/a field T.Untagged", "", true},
		{"a reference from a second module counts", "internal/a func Bench", " bench", false},
		{"surface:keep is honoured", "internal/a func Kept", " keep: TestKept compares against it", false},
		{"a reference from a test alone does not count", "internal/a func TestOnly", "", true},
		{"a flag bench passes is marked", "cmd/tool flag -n", " cli bench", false},
	} {
		if !slices.Contains(lines, tc.decl+":"+tc.users+"\n") {
			t.Errorf("%s: no line %q in\n%s", tc.rule, tc.decl+":"+tc.users, lines)
		}
		if got := slices.Contains(flagged, "surface: no non-test user and no surface:keep: "+tc.decl+"\n"); got != tc.flagged {
			t.Errorf("%s: flagged = %v, want %v", tc.rule, got, tc.flagged)
		}
	}
	if len(flagged) != 3 {
		t.Errorf("flagged %d identifiers, want 3:\n%s", len(flagged), flagged)
	}
}
