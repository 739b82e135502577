package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// mainArgsEnv, when set, makes the test binary run main with these
// space-separated flags instead of the tests.
const mainArgsEnv = "COORDBOTD_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"coordbotd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBrokenFlagValues: a flag value that would start a daemon no
// survey ever runs on, or silently cut at another weight than asked,
// exits 2 before listening, with a message naming the flag. A value that
// slipped through would start the server, so the child is bounded by a
// timeout.
func TestRejectsBrokenFlagValues(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"-interval 0", "-interval"},
		{"-interval -1s", "-interval"},
		{"-cut 4294967296", "-cut"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), mainArgsEnv+"=-addr 127.0.0.1:0 "+tc.args)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "coordbotd: "+tc.flag+":") {
				t.Fatalf("coordbotd %s: err %v, output:\n%s", tc.args, err, out)
			}
		})
	}
}
