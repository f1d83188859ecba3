package golden

import "testing"

func TestDiff(t *testing.T) {
	for _, tc := range []struct{ a, b, want string }{
		{"x\ny\n", "x\ny\n", ""},
		{"1\n2\n3\n4\n5\n6\n7\n8\n", "1\n2\n3\n4\nfive\n6\n7\n8\n",
			"@@ -3 +3 @@\n 3\n 4\n-5\n+five\n 6\n 7\n"},
		{"a\nb\n", "a\nb\nc\n", "@@ -1 +1 @@\n a\n b\n+c\n \n"},
		{"a\nb\nc\n", "a\n", "@@ -1 +1 @@\n a\n-b\n-c\n \n"},
		{"1\nx\n3\n4\n5\n6\n7\ny\n9\n", "1\nX\n3\n4\n5\n6\n7\nY\n9\n",
			"@@ -1 +1 @@\n 1\n-x\n+X\n 3\n 4\n@@ -6 +6 @@\n 6\n 7\n-y\n+Y\n 9\n \n"},
	} {
		if got := Diff([]byte(tc.a), []byte(tc.b)); got != tc.want {
			t.Errorf("Diff(%q, %q) =\n%s\nwant\n%s", tc.a, tc.b, got, tc.want)
		}
	}
}
