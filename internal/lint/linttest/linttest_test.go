package linttest

import (
	"strings"
	"testing"

	"tcpstall/internal/lint"
)

// TestCheckBadWantRegexp: a want comment whose regexp does not
// compile must come back as a fatal error naming the position, not
// as a silent pass or a mismatch list.
func TestCheckBadWantRegexp(t *testing.T) {
	_, err := Check(lint.Jsontags, "testdata/badwant", "tcpstall/internal/lint/badwant")
	if err == nil {
		t.Fatal("expected an error for a non-compiling want regexp")
	}
	if !strings.Contains(err.Error(), "bad want regexp") {
		t.Errorf("error should name the bad regexp, got: %v", err)
	}
	if !strings.Contains(err.Error(), "badwant.go:") {
		t.Errorf("error should carry the comment position, got: %v", err)
	}
}

// TestCheckWantWithoutRegexp: a want comment with no backquoted
// pattern is an expectation that can never match — a typo the
// harness must refuse.
func TestCheckWantWithoutRegexp(t *testing.T) {
	_, err := Check(lint.Jsontags, "testdata/noregexp", "tcpstall/internal/lint/noregexp")
	if err == nil {
		t.Fatal("expected an error for a want comment with no `regexp`")
	}
	if !strings.Contains(err.Error(), "no `regexp`") {
		t.Errorf("error should explain the missing pattern, got: %v", err)
	}
}

// TestCheckBrokenPackage: testdata that fails to type-check must
// surface the load error instead of analyzing garbage.
func TestCheckBrokenPackage(t *testing.T) {
	_, err := Check(lint.Jsontags, "testdata/broken", "tcpstall/internal/lint/broken")
	if err == nil {
		t.Fatal("expected a load error for a package that does not type-check")
	}
	if !strings.Contains(err.Error(), "loading testdata") {
		t.Errorf("error should be attributed to loading, got: %v", err)
	}
}

// TestCheckMissingDir: a nonexistent testdata directory is a load
// error, not a pass with zero wants.
func TestCheckMissingDir(t *testing.T) {
	if _, err := Check(lint.Jsontags, "testdata/no-such-dir", "tcpstall/x"); err == nil {
		t.Fatal("expected an error for a missing testdata directory")
	}
}

// TestCheckMalformedWant: a comment that starts with "want" but is
// not `want <regexp>` — such as the retired want@file form — must be
// a fatal error, not a silently ignored expectation.
func TestCheckMalformedWant(t *testing.T) {
	_, err := Check(lint.Jsontags, "testdata/wantat", "tcpstall/internal/lint/wantat")
	if err == nil {
		t.Fatal("expected an error for a want@ comment")
	}
	if !strings.Contains(err.Error(), "malformed want comment") {
		t.Errorf("error should name the malformed comment, got: %v", err)
	}
}
