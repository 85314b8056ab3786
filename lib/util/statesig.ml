(* One state description, read two ways.

   Every simulated component walks its mutable "structure" state (queue
   contents, MSHR phases, cursor positions, pending-event times) through
   the calls below, once, in a fixed order.  In hash mode the walk yields
   the cheap per-cycle signature of the quiet-cycle detector; in render
   mode it yields the labelled dump the quiet-cycle oracle and bisect
   slices compare.  Values are hashed and rendered with their label;
   [len] hashes a sequence length the rendered brackets already show;
   [lit] is punctuation, rendered but never hashed.  Components are
   compiled apart from this module, so every call is out of line: the
   run helpers [item] and [items] keep the hash path to about one call
   per value.  The mixer is the 64-bit boost-style combine:
   order-dependent and deterministic across runs and domains. *)

type acc = { render : bool; mutable h : int; buf : Buffer.t }

let seed = 0x2545F4914F6CDD1D

(* 61-bit truncation of the 64-bit golden-ratio constant (OCaml ints are
   63-bit). *)
let[@inline] mix h v = h lxor (v + 0x1E3779B97F4A7C15 + (h lsl 6) + (h lsr 2))

(* Rendering is a tail call to an out-of-line helper, so the hash path of
   every value call below is a frameless leaf. *)
let[@inline never] add_int buf label v =
  Buffer.add_string buf label;
  Buffer.add_string buf (string_of_int v)

let[@inline never] add_bool buf label b =
  Buffer.add_string buf label;
  Buffer.add_string buf (string_of_bool b)

let[@inline never] add_item buf v =
  Buffer.add_string buf (string_of_int v);
  Buffer.add_char buf ';'

let int s label v = if s.render then add_int s.buf label v else s.h <- mix s.h v

let bool s label b =
  if s.render then add_bool s.buf label b else s.h <- mix s.h (Bool.to_int b)

let none s mark = if s.render then Buffer.add_string s.buf mark else s.h <- mix s.h (-1)

let flag s b =
  if s.render then Buffer.add_string s.buf (if b then "1" else "0")
  else s.h <- mix s.h (Bool.to_int b)

let item s v = if s.render then add_item s.buf v else s.h <- mix s.h v

let items s label xs =
  if s.render then begin
    Buffer.add_string s.buf label;
    List.iter (add_item s.buf) xs
  end
  else s.h <- List.fold_left mix (mix s.h (List.length xs)) xs

let len s n = if not s.render then s.h <- mix s.h n
let lit s str = if s.render then Buffer.add_string s.buf str

(* Hash mode never touches its buffer. *)
let no_buf = Buffer.create 1

let hash fold =
  let s = { render = false; h = seed; buf = no_buf } in
  fold s;
  s.h

let render fold =
  let s = { render = true; h = seed; buf = Buffer.create 1024 } in
  fold s;
  Buffer.contents s.buf
