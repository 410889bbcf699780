package apps

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzEachField: eachField must split exactly like strings.Fields,
// including the Unicode separators its ASCII fast path hands off.
func FuzzEachField(f *testing.F) {
	for _, s := range []string{
		"", " ", "plot twist ending", "  lead\tand\ntrail  ",
		"a\vb\fc\rd", "x\u0085y", "x\u00a0y", "x\u3000y",
		"word\u3000", " lead", "café au lait", "\xff\xfe bad utf8",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var got []string
		eachField(s, func(tok string) { got = append(got, tok) })
		if want := strings.Fields(s); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("eachField(%q) = %q, want %q", s, got, want)
		}
	})
}
