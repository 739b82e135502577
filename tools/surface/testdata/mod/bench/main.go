package main

import (
	"fmt"

	"fix/internal/a"
)

func main() {
	a.Bench()
	fmt.Println("go", "run", "./cmd/tool", "-n", "3")
}
