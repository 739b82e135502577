package a

import "testing"

func TestKept(t *testing.T) {
	TestOnly()
	Kept()
}
