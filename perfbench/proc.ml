(* The daemon under test: the shipped [msoc serve], started as its own
   process with default flags and MSOC_DOMAINS unset. *)

type t = { pid : int; socket : string }

(* [VmHWM] (peak resident set) of a [/proc/<pid>/status] text, in kB. *)
let parse_vmhwm status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.equal (String.sub line 0 i) "VmHWM" ->
           let rest = String.sub line (i + 1) (String.length line - i - 1) in
           (match String.split_on_char ' ' (String.trim rest) with
           | kb :: _ -> int_of_string_opt kb
           | [] -> None)
         | _ -> None)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

let peak_rss_mb t =
  match parse_vmhwm (read_file (Printf.sprintf "/proc/%d/status" t.pid)) with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "daemon /proc status has no VmHWM line"

let env_without_domains () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not (String.length kv >= 13 && String.equal (String.sub kv 0 13) "MSOC_DOMAINS="))
  |> Array.of_list

let rec wait_connectable socket deadline =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    if Unix.gettimeofday () > deadline then failwith ("daemon never listened on " ^ socket);
    Unix.sleepf 0.002;
    wait_connectable socket deadline

(* Spawn the daemon; returns once its socket accepts a connection (the
   connected descriptor is returned for the caller to use). *)
let spawn ~exe ~socket ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process_env exe [| exe; "serve"; "--socket"; socket |] (env_without_domains ())
      Unix.stdin out out
  in
  Unix.close out;
  let t = { pid; socket } in
  match wait_connectable socket (Unix.gettimeofday () +. 20.0) with
  | fd -> (t, fd)
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.01;
      wait_exit pid deadline
    end
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM, then SIGKILL if the daemon has not exited within 10 s; always
   reaps the process. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (wait_exit t.pid (Unix.gettimeofday () +. 10.0)) then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit t.pid (Unix.gettimeofday () +. 10.0))
  end;
  try Unix.unlink t.socket with Unix.Unix_error _ -> ()
