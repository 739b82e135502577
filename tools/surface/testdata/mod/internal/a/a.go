// Package a holds one declaration per rule of the surface checker.
package a

import "fmt"

// Dead has no user.
func Dead() {}

// TestOnly is called from a test alone.
func TestOnly() {}

// Kept has no user but names why it stays.
// surface:keep TestKept compares against it
func Kept() {}

// Bench is called from the bench module alone.
func Bench() {}

// T is used by cmd/tool.
type T struct {
	Tagged   int `json:"tagged"`
	Untagged int
}

// String implements fmt.Stringer.
func (t T) String() string { return fmt.Sprint(t.Tagged) }
