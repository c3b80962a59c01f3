"""Serve token PDFA files over HTTP from a process of their own.

    python3 server.py SRC_DIR MODEL.pdfa [MODEL.pdfa ...]

One `TokenModelServer` serves one model at a time. The parent drives it
over stdin/stdout, one line per message:

    server -> "ready URL"         once the server listens
    "use I"  -> "ok"              serve the I-th model from now on
    "stats"  -> {"requests": N, "model_s": T}
                                  requests answered so far, and the time
                                  spent inside the served model for them
    end of stdin                  stop the server and exit
"""

import json
import sys
import threading
import time


def main(argv):
    sys.path.insert(0, argv[1])
    from pdfalearn.fileio import load_pdfa
    from pdfalearn.lmbridge import TokenModel, TokenModelServer, pdfa_token_model

    models = [pdfa_token_model(load_pdfa(path)) for path in argv[2:]]

    class Served(TokenModel):
        def __init__(self):
            self.current = models[0]
            self.vocab = self.current.vocab
            self.bos = self.current.bos
            self.eos = self.current.eos
            self.requests = 0
            self.model_s = 0.0
            self._lock = threading.Lock()

        def next_tokens(self, context):
            start = time.perf_counter()
            try:
                return self.current.next_tokens(context)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.requests += 1
                    self.model_s += elapsed

    served = Served()
    with TokenModelServer(served) as server:
        print("ready", server.url, flush=True)
        for line in sys.stdin:
            cmd = line.split()
            if cmd[0] == "use":
                served.current = models[int(cmd[1])]
                print("ok", flush=True)
            elif cmd[0] == "stats":
                with served._lock:
                    stats = {"requests": served.requests, "model_s": served.model_s}
                print(json.dumps(stats), flush=True)
            else:
                raise ValueError(f"unknown command {line!r}")


if __name__ == "__main__":
    main(sys.argv)
