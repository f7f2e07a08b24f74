package httpx

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Serve runs h on addr until ctx — the daemon's signal context — is
// cancelled, then shuts down gracefully, giving in-flight requests 5 s
// to finish. name prefixes the log lines.
func Serve(ctx context.Context, name, addr string, h http.Handler) error {
	srv := &http.Server{
		Addr:    addr,
		Handler: h,
		// Request contexts descend from the signal context, so shutdown
		// cancels in-flight planning fan-outs too.
		BaseContext: func(net.Listener) context.Context { return ctx },
		// Bound what an idle or header-dribbling connection can hold.
		// ReadTimeout/WriteTimeout stay unset: keep-alive clients and large
		// /estimate_batch, /swap and /rollout bodies are legitimate.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    64 << 10,
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("%s: listening on %s\n", name, addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Printf("%s: shutting down\n", name)
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}

// PrintVersion reports the binary's build identity for a -version flag —
// the same fields GET /version serves.
func PrintVersion(name string) {
	b := obs.Build()
	fmt.Printf("%s %s (%s", name, orDev(b.Version), b.GoVersion)
	if b.VCSRevision != "" {
		rev := b.VCSRevision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Printf(", rev %s", rev)
		if b.VCSModified {
			fmt.Print("+dirty")
		}
	}
	fmt.Println(")")
}

func orDev(v string) string {
	if v == "" || v == "(devel)" {
		return "devel"
	}
	return v
}
