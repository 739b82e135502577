package main

import (
	"flag"
	"fmt"

	"fix/internal/a"
)

func main() {
	n := flag.Int("n", 1, "count")
	quiet := flag.Bool("quiet", false, "print nothing")
	flag.Parse()
	if !*quiet {
		fmt.Println(*n, a.T{})
	}
}
