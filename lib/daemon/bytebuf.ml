(** A reusable byte buffer with a consumed prefix — see bytebuf.mli. *)

type t = {
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  initial : int;
}

let keep_bytes = 1024 * 1024

let create n =
  let n = max 1 n in
  { buf = Bytes.create n; start = 0; stop = 0; initial = n }

let length t = t.stop - t.start

let reserve t n =
  if t.stop + n > Bytes.length t.buf then begin
    let live = t.stop - t.start in
    if live + n <= Bytes.length t.buf then
      (* sliding the live bytes to the front makes room *)
      Bytes.blit t.buf t.start t.buf 0 live
    else begin
      let cap = ref (2 * Bytes.length t.buf) in
      while !cap < live + n do
        cap := 2 * !cap
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf t.start b 0 live;
      t.buf <- b
    end;
    t.start <- 0;
    t.stop <- live
  end

let commit t n =
  if n < 0 || t.stop + n > Bytes.length t.buf then invalid_arg "Bytebuf.commit";
  t.stop <- t.stop + n

let consume t n =
  if n < 0 || n > length t then invalid_arg "Bytebuf.consume";
  t.start <- t.start + n;
  if t.start = t.stop then begin
    t.start <- 0;
    t.stop <- 0;
    if Bytes.length t.buf > keep_bytes then t.buf <- Bytes.create t.initial
  end

let clear t = consume t (length t)

let truncate t n =
  if n < 0 || n > length t then invalid_arg "Bytebuf.truncate";
  t.stop <- t.start + n

let add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.buf t.stop c;
  t.stop <- t.stop + 1

let add_substring t s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Bytebuf.add_substring";
  reserve t len;
  Bytes.blit_string s pos t.buf t.stop len;
  t.stop <- t.stop + len

let add_string t s = add_substring t s 0 (String.length s)
let contents t = Bytes.sub_string t.buf t.start (length t)
