package counter

import "testing"

type sums map[string]int64

func (s sums) AddN(name string, n int64) { s[name] += n }

func TestAdd(t *testing.T) {
	s := sums{}
	Add(s, "a", 2)
	Add(s, "a", 3)
	Add(s, "zero", 0)
	if s["a"] != 5 {
		t.Errorf("a = %d, want 5", s["a"])
	}
	if n, ok := s["zero"]; !ok || n != 0 {
		t.Errorf("a zero delta was dropped: %v", s)
	}
	Add(nil, "a", 1) // a nil sink drops the delta without panicking
}
